"""Occupation-number bases and second-quantized operators.

Electron modes are ordered up-block first, then down-block, each by
ascending site: mode(x, up) = x, mode(x, down) = sites + x.  A basis state
is a bit word whose bit m is the occupation of mode m, and the word
corresponds to the product of creation operators applied in ascending mode
order.  Annihilating or creating mode m therefore carries the sign
(-1)^(number of occupied modes below m).

The electron basis is a fixed-N slice of Fock space (N = sites - 1
everywhere); creation and annihilation are rectangular maps between
adjacent slices, while bilinears such as hopping terms are square.

Boson bases are truncated per mode; the raising operator annihilates the
top level instead of erroring, so truncation artifacts surface as cutoff
convergence failures rather than crashes.

Spin resolution on the magnetization sectors never builds the Fock space:
the lowering map between adjacent sectors comes from the direct rule (flip
one up spin, coefficient +1).  The Fock space is the finite-U space and the
oracle of the sector forms; ``sector_lowering_fock`` is the fermionic S-
restricted to the signed sector vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import scipy.sparse as sp

from .errors import guard_dimension
from .model import LatticeModel
from .sector import SectorBasis, enumerate_sector

UP, DOWN = 0, 1


class SparseHermitian:
    """Dimension-labeled sparse matrix with an enforced hermiticity flag.

    When ``hermitian`` is set the constructor verifies A = A* within a
    1e-12 relative tolerance and rejects the matrix otherwise.  Explicit
    zeros are never stored.
    """

    __slots__ = ("matrix", "hermitian")

    HERMITICITY_TOL = 1e-12

    def __init__(self, matrix, hermitian: bool = True):
        m = sp.csr_matrix(matrix)
        m.eliminate_zeros()
        if hermitian:
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"hermitian flag on a {m.shape} matrix")
            worst, scale = self._hermiticity_defect(m)
            if worst > self.HERMITICITY_TOL * scale:
                raise ValueError(f"matrix flagged hermitian but ||A - A*|| = {worst:.3e}")
        self.matrix = m
        self.hermitian = hermitian

    @staticmethod
    def _hermiticity_defect(m: sp.csr_matrix) -> tuple[float, float]:
        """Largest entry of |A - A*| and the tolerance scale max(1, max |A|),
        in O(nnz).  Puts ``m`` in canonical form first; the CSC arrays of a
        canonical A are the CSR arrays of A^T, so a Hermitian A matches them
        index for index and its data equals their conjugate.  Only a pattern
        mismatch forms the difference."""
        m.sum_duplicates()
        cols = m.tocsc()
        if np.array_equal(m.indptr, cols.indptr) and np.array_equal(m.indices, cols.indices):
            adjoint = cols.data.conj()
            worst = 0.0 if np.array_equal(m.data, adjoint) else float(np.abs(m.data - adjoint).max())
        else:
            worst = float(abs(m - m.conjugate().T).max())
        return worst, max(1.0, float(np.abs(m.data).max(initial=0.0)))

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def __repr__(self):
        tag = "hermitian" if self.hermitian else "general"
        return f"SparseHermitian({self.shape[0]}x{self.shape[1]}, {tag}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# electrons
# ---------------------------------------------------------------------------

def _jw_sign(word: int, mode: int) -> int:
    return -1 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1


@dataclass(frozen=True, eq=False)
class FullFockBasis:
    """All bit words over 2*sites modes with a fixed electron count."""

    sites: int
    n_electrons: int
    states: tuple[int, ...]
    index: dict[int, int]

    @property
    def modes(self) -> int:
        return 2 * self.sites

    @property
    def dimension(self) -> int:
        return len(self.states)

    def mode(self, site: int, spin: int) -> int:
        return site + spin * self.sites


@lru_cache(maxsize=8)
def full_fock_basis(sites: int, n_electrons: int) -> FullFockBasis:
    if not 0 <= n_electrons <= 2 * sites:
        raise ValueError(f"cannot place {n_electrons} electrons on {sites} sites")
    dim = comb(2 * sites, n_electrons)
    guard_dimension(dim, f"Fock basis of {n_electrons} electrons on {sites} sites")
    states = tuple(w for w in range(1 << (2 * sites))
                   if w.bit_count() == n_electrons)
    assert len(states) == dim
    return FullFockBasis(sites=sites, n_electrons=n_electrons, states=states,
                         index={w: i for i, w in enumerate(states)})


def build_fermion_op(basis: FullFockBasis, kind: str, site: int, spin: int) -> SparseHermitian:
    """Matrix of c*, c, or n for one (site, spin) mode.

    ``create``/``annihilate`` return rectangular maps into the basis with one
    electron more/fewer; ``number`` is square and diagonal.
    """
    if not 0 <= site < basis.sites:
        raise ValueError(f"site {site} out of range")
    mode = basis.mode(site, spin)
    if kind == "number":
        diag = np.array([(w >> mode) & 1 for w in basis.states], dtype=float)
        return SparseHermitian(sp.diags(diag).tocsr(), hermitian=True)
    if kind not in ("create", "annihilate"):
        raise ValueError(f"unknown fermion op kind {kind!r}")
    delta = 1 if kind == "create" else -1
    target = full_fock_basis(basis.sites, basis.n_electrons + delta)
    mat = sp.lil_matrix((target.dimension, basis.dimension))
    for j, w in enumerate(basis.states):
        occupied = (w >> mode) & 1
        if kind == "create" and not occupied:
            mat[target.index[w | (1 << mode)], j] = _jw_sign(w, mode)
        elif kind == "annihilate" and occupied:
            mat[target.index[w ^ (1 << mode)], j] = _jw_sign(w, mode)
    return SparseHermitian(mat.tocsr(), hermitian=False)


def _bilinear(basis: FullFockBasis, create_mode: int, annihilate_mode: int) -> sp.csr_matrix:
    """Square matrix of c*_create c_annihilate on a fixed-N basis."""
    rows, cols, vals = [], [], []
    for j, w in enumerate(basis.states):
        if not (w >> annihilate_mode) & 1:
            continue
        s = _jw_sign(w, annihilate_mode)
        w1 = w ^ (1 << annihilate_mode)
        if (w1 >> create_mode) & 1:
            continue
        s *= _jw_sign(w1, create_mode)
        rows.append(basis.index[w1 | (1 << create_mode)])
        cols.append(j)
        vals.append(float(s))
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(basis.dimension, basis.dimension))


def hopping_bilinear(basis: FullFockBasis, x: int, y: int, spin: int) -> sp.csr_matrix:
    """c*_{x spin} c_{y spin} as a square matrix."""
    return _bilinear(basis, basis.mode(x, spin), basis.mode(y, spin))


def build_gutzwiller(basis: FullFockBasis) -> SparseHermitian:
    """Diagonal projection onto words with no doubly occupied site."""
    mask = (1 << basis.sites) - 1
    diag = np.array([0.0 if (w & (w >> basis.sites)) & mask else 1.0
                     for w in basis.states])
    return SparseHermitian(sp.diags(diag).tocsr(), hermitian=True)


def build_spin_ops(basis: FullFockBasis) -> dict[str, SparseHermitian]:
    """Total-spin operators S3, S+, S-, and the Casimir Stot2 = S(S+1)."""
    sites = basis.sites
    s3_diag = np.zeros(basis.dimension)
    for i, w in enumerate(basis.states):
        ups = (w & ((1 << sites) - 1)).bit_count()
        s3_diag[i] = 0.5 * (2 * ups - basis.n_electrons)
    s3 = sp.diags(s3_diag).tocsr()

    sminus = sp.csr_matrix((basis.dimension, basis.dimension))
    for x in range(sites):
        sminus = sminus + _bilinear(basis, basis.mode(x, DOWN), basis.mode(x, UP))
    splus = sminus.conjugate().T.tocsr()
    stot2 = (s3 @ s3 + 0.5 * (splus @ sminus + sminus @ splus)).tocsr()
    return {
        "S3": SparseHermitian(s3, hermitian=True),
        "Splus": SparseHermitian(splus, hermitian=False),
        "Sminus": SparseHermitian(sminus, hermitian=False),
        "Stot2": SparseHermitian(stot2, hermitian=True),
    }


# ---------------------------------------------------------------------------
# bosons
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BosonBasis:
    """Occupation tuples with a per-mode cutoff, in lexicographic order."""

    modes: int
    cutoff: int
    states: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]

    @property
    def dimension(self) -> int:
        return len(self.states)


@lru_cache(maxsize=8)
def boson_basis(modes: int, cutoff: int) -> BosonBasis:
    if modes < 0 or cutoff < 0:
        raise ValueError("modes and cutoff must be >= 0")
    guard_dimension((cutoff + 1) ** modes, f"boson basis with {modes} modes")
    states = tuple(product(range(cutoff + 1), repeat=modes))
    return BosonBasis(modes=modes, cutoff=cutoff, states=states,
                      index={s: i for i, s in enumerate(states)})


def build_boson_op(basis: BosonBasis, kind: str, mode: int | None = None) -> SparseHermitian:
    """Truncated b*, b, or the total number operator.

    b* raises by sqrt(n+1) below the cutoff and annihilates the ceiling
    level; b lowers by sqrt(n).
    """
    if kind == "number_total":
        diag = np.array([float(sum(s)) for s in basis.states])
        return SparseHermitian(sp.diags(diag).tocsr(), hermitian=True)
    if kind not in ("create", "annihilate"):
        raise ValueError(f"unknown boson op kind {kind!r}")
    if mode is None or not 0 <= mode < basis.modes:
        raise ValueError(f"mode {mode} out of range")
    rows, cols, vals = [], [], []
    for j, s in enumerate(basis.states):
        n = s[mode]
        if kind == "create" and n < basis.cutoff:
            s2 = s[:mode] + (n + 1,) + s[mode + 1:]
            rows.append(basis.index[s2]); cols.append(j); vals.append(np.sqrt(n + 1.0))
        elif kind == "annihilate" and n > 0:
            s2 = s[:mode] + (n - 1,) + s[mode + 1:]
            rows.append(basis.index[s2]); cols.append(j); vals.append(np.sqrt(float(n)))
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dimension, basis.dimension))
    return SparseHermitian(mat, hermitian=False)


def momentum_quadrature(basis: BosonBasis, mode: int, frequency: float) -> np.ndarray:
    """Hermitian p = i sqrt(omega/2) (b* - b) on the truncated basis, dense."""
    bdag = build_boson_op(basis, "create", mode).matrix
    return (1j * np.sqrt(frequency / 2.0) * (bdag - bdag.conjugate().T)).toarray()


def tensor(a: SparseHermitian, b: SparseHermitian) -> SparseHermitian:
    """Kronecker product, left factor index major, guarded by the budget."""
    guard_dimension(a.shape[0] * b.shape[0], "tensor product")
    return SparseHermitian(sp.kron(a.matrix, b.matrix, format="csr"),
                           hermitian=a.hermitian and b.hermitian)


# ---------------------------------------------------------------------------
# sector embedding: hole-spin configurations as signed Fock words
# ---------------------------------------------------------------------------

def config_fock_state(sites: int, config) -> tuple[int, int]:
    """Signed Fock word of the canonical sector vector for one configuration.

    The vector is built by filling every site in ascending order with its
    spin (an up spin standing in at the hole site) and then removing the
    up electron at the hole; the returned sign is the accumulated fermionic
    reordering sign relative to the ascending-mode word.
    """
    filled_up = config.up_mask | (1 << config.hole)
    word, sign = 0, 1
    for z in reversed(range(sites)):          # rightmost creation acts first
        mode = z if (filled_up >> z) & 1 else sites + z
        sign *= _jw_sign(word, mode)
        word |= 1 << mode
    sign *= _jw_sign(word, config.hole)       # annihilate the stand-in up spin
    word ^= 1 << config.hole
    return word, sign


def sector_embedding(model: LatticeModel, m):
    """Map a sector basis into the fixed-N Fock basis.

    Returns (sector_basis, fock_basis, word_rows, signs): configuration i
    corresponds to ``signs[i]`` times Fock state ``word_rows[i]``.
    """
    basis = enumerate_sector(model, m)
    fock = full_fock_basis(model.sites, model.n_electrons)
    rows = np.empty(basis.dimension, dtype=int)
    signs = np.empty(basis.dimension, dtype=float)
    for i, config in enumerate(basis.configs):
        word, sign = config_fock_state(model.sites, config)
        rows[i] = fock.index[word]
        signs[i] = sign
    return basis, fock, rows, signs


def projected_restriction(full_matrix, rows_a, signs_a, rows_b=None, signs_b=None) -> sp.csr_matrix:
    """Restrict a full-basis matrix to signed sector vectors: S_a A S_b."""
    if rows_b is None:
        rows_b, signs_b = rows_a, signs_a
    sub = sp.csr_matrix(full_matrix)[np.ix_(rows_a, rows_b)]
    return (sp.diags(signs_a) @ sub @ sp.diags(signs_b)).tocsr()


def _lowering_matrix(basis_hi: SectorBasis, basis_lo: SectorBasis) -> sp.csr_matrix:
    """S- from sector M to M-1 by the direct rule: every up spin of a
    configuration flips to down with coefficient +1.

    The result is canonical CSR (sorted indices, no explicit zeros), so the
    S^2 built from it has the same CSR arrays as the one built from
    ``sector_lowering_fock``.
    """
    holes, masks = basis_hi.holes, basis_hi.masks
    rows, cols = [], []
    for z in range(basis_hi.sites):
        src = np.nonzero((masks >> z) & 1)[0]
        rows.append(basis_lo.rank(holes[src], masks[src] ^ (1 << z)))
        cols.append(src)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    mat = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                        shape=(basis_lo.dimension, basis_hi.dimension))
    mat.sort_indices()
    return mat


def sector_lowering(model: LatticeModel, m) -> tuple[sp.csr_matrix, SectorBasis, SectorBasis]:
    """Spin-lowering map from sector M to sector M-1 in the canonical bases.

    Built by the direct rule, which never leaves the sector bases; the
    fermionic S- route is ``sector_lowering_fock``.  Returns
    (matrix, basis_M, basis_{M-1}).
    """
    basis_hi = enumerate_sector(model, m)
    basis_lo = enumerate_sector(model, basis_hi.m - 1)
    return _lowering_matrix(basis_hi, basis_lo), basis_hi, basis_lo


def sector_lowering_fock(model: LatticeModel, m) -> tuple[sp.csr_matrix, SectorBasis, SectorBasis]:
    """The lowering map of ``sector_lowering`` by the second route: the
    fermionic S- on the full fixed-N Fock basis, restricted to the signed
    sector vectors, so its sign structure reflects the sector convention
    end to end."""
    basis_hi, fock, rows_hi, signs_hi = sector_embedding(model, m)
    m_lo = basis_hi.m - 1
    basis_lo, _, rows_lo, signs_lo = sector_embedding(model, m_lo)
    sminus = build_spin_ops(fock)["Sminus"].matrix
    mat = projected_restriction(sminus, rows_lo, signs_lo, rows_hi, signs_hi)
    return mat, basis_hi, basis_lo


def sector_spin_squared(model: LatticeModel, m) -> SparseHermitian:
    """Total-spin Casimir restricted to one magnetization sector:
    M^2 + (L*L + L_+ L_+*) / 2, with L the lowering map out of M and L_+
    the one into it."""
    basis = enumerate_sector(model, m)
    n = basis.dimension
    m_frac = basis.m
    max_m = (model.sites - 1) / 2
    s2 = float(m_frac) ** 2 * sp.identity(n, format="csr")
    if float(m_frac) > -max_m:
        low = _lowering_matrix(basis, enumerate_sector(model, m_frac - 1))
        s2 = s2 + 0.5 * (low.conjugate().T @ low)
    if float(m_frac) < max_m:
        low_above = _lowering_matrix(enumerate_sector(model, m_frac + 1), basis)
        s2 = s2 + 0.5 * (low_above @ low_above.conjugate().T)
    return SparseHermitian(s2.tocsr(), hermitian=True)
