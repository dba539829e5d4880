"""Per-word and per-state occupation-number builders: the tests' independent
oracles for the Fock and boson operators of ``nagaoka.manybody`` and the
forms ``nagaoka.hamiltonian`` builds from them.

Fock words are enumerated one by one and every Jordan-Wigner sign is
counted on the scalar word; boson states are occupation tuples in
lexicographic order, found through a dict.  Floating-point sums are taken
in the order the production code takes them, so tests can require equal
CSR arrays.
"""

import math
from itertools import product

import numpy as np
import scipy.sparse as sp

from nagaoka.hamiltonian import peierls_kernel, riemann_kernel

UP, DOWN = 0, 1


# ---------------------------------------------------------------------------
# electrons
# ---------------------------------------------------------------------------

def fock_states(sites: int, n_electrons: int) -> tuple[int, ...]:
    """Every word over 2*sites modes with ``n_electrons`` bits set, ascending."""
    return tuple(w for w in range(1 << (2 * sites)) if w.bit_count() == n_electrons)


def _index(states) -> dict:
    return {s: i for i, s in enumerate(states)}


def jw_sign(word: int, mode: int) -> int:
    """(-1)^(number of occupied modes below ``mode``)."""
    return -1 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1


def _mode(sites: int, site: int, spin: int) -> int:
    return site + spin * sites


def build_fermion_op(sites: int, n_electrons: int, kind: str, site: int,
                     spin: int) -> sp.csr_matrix:
    """c*, c or n of one (site, spin) mode on the words with ``n_electrons``
    electrons; c* and c map into the words with one electron more / fewer."""
    mode = _mode(sites, site, spin)
    states = fock_states(sites, n_electrons)
    if kind == "number":
        return sp.diags([float((w >> mode) & 1) for w in states]).tocsr()
    if kind not in ("create", "annihilate"):
        raise ValueError(f"unknown fermion op kind {kind!r}")
    target = _index(fock_states(sites, n_electrons + (1 if kind == "create" else -1)))
    rows, cols, vals = [], [], []
    for j, w in enumerate(states):
        occupied = (w >> mode) & 1
        if (kind == "create") != bool(occupied):
            rows.append(target[w ^ (1 << mode)])
            cols.append(j)
            vals.append(float(jw_sign(w, mode)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(target), len(states)))


def bilinear(sites: int, n_electrons: int, create_mode: int, annihilate_mode: int) -> sp.csr_matrix:
    """c*_create c_annihilate, word by word."""
    states = fock_states(sites, n_electrons)
    index = _index(states)
    rows, cols, vals = [], [], []
    for j, w in enumerate(states):
        if not (w >> annihilate_mode) & 1:
            continue
        s = jw_sign(w, annihilate_mode)
        w1 = w ^ (1 << annihilate_mode)
        if (w1 >> create_mode) & 1:
            continue
        rows.append(index[w1 | (1 << create_mode)])
        cols.append(j)
        vals.append(float(s * jw_sign(w1, create_mode)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))


def occupations(sites: int, n_electrons: int) -> np.ndarray:
    """occ[i, spin, x] of word i, read bit by bit."""
    return np.array([[[(w >> _mode(sites, x, spin)) & 1 for x in range(sites)]
                      for spin in (UP, DOWN)]
                     for w in fock_states(sites, n_electrons)], dtype=np.int64)


def hubbard_matrix(model, u: float) -> sp.csr_matrix:
    """sum_xy,spin t_xy c*_x c_y as a running sparse sum, plus the U and
    U_xy diagonal."""
    sites, n = model.sites, model.n_electrons
    dim = len(fock_states(sites, n))
    mat = sp.csr_matrix((dim, dim))
    for x in range(sites):
        for y in range(sites):
            if model.hopping[x, y] != 0.0:
                for spin in (UP, DOWN):
                    mat = mat + model.hopping[x, y] * bilinear(
                        sites, n, _mode(sites, x, spin), _mode(sites, y, spin))
    occ = occupations(sites, n)
    n_site = occ.sum(axis=1).astype(float)
    diag = u * (occ[:, UP] & occ[:, DOWN]).sum(axis=1) \
        + np.einsum("ix,xy,iy->i", n_site, model.offsite_u, n_site)
    return (mat + sp.diags(diag)).tocsr()


def gutzwiller(sites: int, n_electrons: int) -> sp.csr_matrix:
    lo = (1 << sites) - 1
    return sp.diags([0.0 if (w & (w >> sites)) & lo else 1.0
                     for w in fock_states(sites, n_electrons)]).tocsr()


def spin_ops(sites: int, n_electrons: int) -> dict[str, sp.csr_matrix]:
    """S3, S+, S- and S(S+1), with S- summed one site at a time.  The
    program builds only S- (``manybody.fock_lowering``); the other three
    exist for the spin-algebra tests."""
    states = fock_states(sites, n_electrons)
    s3 = sp.diags([0.5 * (2 * (w & ((1 << sites) - 1)).bit_count() - n_electrons)
                   for w in states]).tocsr()
    sminus = sp.csr_matrix((len(states), len(states)))
    for x in range(sites):
        sminus = sminus + bilinear(sites, n_electrons, _mode(sites, x, DOWN), _mode(sites, x, UP))
    splus = sminus.conjugate().T.tocsr()
    stot2 = (s3 @ s3 + 0.5 * (splus @ sminus + sminus @ splus)).tocsr()
    stot2.sum_duplicates()          # canonical order, as SparseHermitian stores it
    return {"S3": s3, "Splus": splus, "Sminus": sminus, "Stot2": stot2}


# ---------------------------------------------------------------------------
# bosons
# ---------------------------------------------------------------------------

def boson_states(modes: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product(range(cutoff + 1), repeat=modes))


def build_boson_op(modes: int, cutoff: int, kind: str, mode: int | None = None) -> sp.csr_matrix:
    """b*, b of one mode or the total number, state by state; b* raises by
    sqrt(n+1) below the cutoff and annihilates the top level."""
    states = boson_states(modes, cutoff)
    if kind == "number_total":
        return sp.diags([float(sum(s)) for s in states]).tocsr()
    if kind not in ("create", "annihilate"):
        raise ValueError(f"unknown boson op kind {kind!r}")
    index = _index(states)
    step = 1 if kind == "create" else -1
    rows, cols, vals = [], [], []
    for j, s in enumerate(states):
        n = s[mode] + step
        if 0 <= n <= cutoff:
            rows.append(index[s[:mode] + (n,) + s[mode + 1:]])
            cols.append(j)
            vals.append(np.sqrt(float(max(n, s[mode]))))     # sqrt of the upper level
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))


def field_energy(omegas, cutoff: int) -> np.ndarray:
    """sum_j omega_j n_j of every state, in state order."""
    return np.array([sum(w * n for w, n in zip(omegas, s))
                     for s in boson_states(len(omegas), cutoff)])


def momentum_quadrature(modes: int, cutoff: int, mode: int, frequency: float) -> np.ndarray:
    """Hermitian p = i sqrt(omega/2) (b* - b) of one mode, dense."""
    bdag = build_boson_op(modes, cutoff, "create", mode)
    return (1j * np.sqrt(frequency / 2.0) * (bdag - bdag.conjugate().T)).toarray()


def peierls_phase(model, photon_modes, x: int, y: int, cutoff: int,
                  n_segments: int | None = None) -> np.ndarray:
    """Hermitian line-integral field operator sum_j (c_j a_j + conj(c_j) a*_j)
    between sites x and y, dense; with ``n_segments`` the Riemann-sum kernel
    replaces the exact one."""
    if x == y:
        raise ValueError("phase needs two distinct sites")
    rad = model.radiation
    pos = rad.site_positions
    dim = (cutoff + 1) ** len(photon_modes)
    mat = np.zeros((dim, dim), dtype=complex)
    for j, md in enumerate(photon_modes):
        direction = float(md.eps @ (pos[y] - pos[x]))
        if direction == 0.0:
            continue
        kernel = (peierls_kernel(pos[x], pos[y], md.k) if n_segments is None
                  else riemann_kernel(pos[x], pos[y], md.k, n_segments))
        c = direction / math.sqrt(2.0 * md.omega * rad.box_length ** 3) * kernel
        a = build_boson_op(len(photon_modes), cutoff, "annihilate", j).toarray()
        mat += c * a + np.conj(c) * a.conj().T
    return mat
