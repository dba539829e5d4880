"""Hamiltonian assembly on finite bases.

Every operator lives either on the fixed-N Fock basis (finite-U forms) or
on a magnetization-sector configuration basis (infinite-U forms), possibly
tensored with a truncated boson space.  The infinite-U electron block is
assembled by two independent routes:

* ``direct_formula``: hole moves contribute -t_xy directly, diagonal terms
  are evaluated on configuration occupations;
* ``projected``: the U = 0 Hamiltonian is built on the full fixed-N basis,
  sandwiched with the no-double-occupancy projection and rotated into the
  signed canonical sector vectors.

Entrywise agreement of the two routes certifies the fermionic sign
convention and is enforced by the test suite.

The boson-dressed forms (full-space and sector Holstein, polaron frame,
radiation, and the polaron frame on position grids) all have
the shape sum_k A_k (x) B_k: hole-move blocks per bond (x) a boson factor,
an electron diagonal (x) I, and I (x) the field energy.  Each factor is
held as (rows, cols, vals) index arrays, and ``_kron_sum`` builds the sum
with one COO->CSR, through ``_dressed_sector`` for the sector forms;
both count the entries they will store against the entry budget first.
A bond's hop block is its slice of ``hole_moves``; a boson factor comes
from dense single-mode factors through ``manybody``,
a per-bond phase as a ``_mode_product``, a field energy or a coupling
b*_y + b_y as a ``_mode_sum``.  The polaron and radiation phases
exponentiate generators that act on one mode each, so they are exact
products of (cutoff+1)-dimensional exponentials, and a mode the bond does
not couple is an identity that costs index arithmetic only.  A factor
whose amplitude is imaginary, as every polaron amplitude is for a real
coupling matrix, is real orthogonal and stored as float64, so the polaron
frame is real and a radiation form is complex only where a coupled mode
has a coefficient with a real part.  No position receives more than two
entries (boson diagonals are summed before they meet the electron
diagonal), so the CSR arrays do not depend on the order of the terms.

The polaron phases commute, so one orthogonal rotation removes them all
(the displaced-oscillator basis; Weisse & Fehske, Lect. Notes Phys. 739,
529 (2008)): with lambda_hz = g_hz / omega and E(s) = exp(s (b* - b)) on
one mode, theta_xy = V_y V_x^T for V_h = (x)_z E(-lambda_hz), and turning
the bosons of each configuration by V of its hole site gives the bare hops
-t_xy (x) I, the dressed diagonal unchanged and, per hole site h, the field
energy V_h^T omega N_b V_h, dense only on the modes h couples
(``assemble_lang_firsov_hole_sector``, ``HOLE_FRAME_FORM``).  ``ed`` and
``spin`` solve the Lang-Firsov form in this basis: on complete-4 at cutoff
3, M = 1/2, it stores 21,504 entries against the frame's 150,516.  Its
spectrum is the frame's within 1e-13 (1 + |x|) on dense solves of seeded
random models (4.9e-14 measured), and the ``ed`` rows' E0, <S^2> and
dense-routed gaps lie within 5e-14 (1 + |x|) of ``ground_report`` of the
frame; a Lanczos gap is guaranteed to the deflated solve's tolerance
only.  ``assemble --form langfirsov``, ``certify --form langfirsov`` and
the acceptance criteria keep ``assemble_lang_firsov_sector``, whose own
entries they report, and the tests hold it as the hole frame's oracle.

Each sector form states the +-1 gauge its off-diagonal signs call for
(``SectorHamiltonian.gauge``): (-1)^{n_y} on every positively coupled mode
y for the Holstein form (``boson_parity_gauge``), the identity for the
others.  ``SECTOR_FORMS`` names the four sector forms; ``assemble_sector``
also takes the hole frame and the grid form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp

from .errors import DimensionBudgetError, ModelValidationError, guard_dimension, guard_entries
from .manybody import (
    DOWN,
    MAX_MODES,
    UP,
    BosonBasis,
    SparseHermitian,
    _bilinear,
    _csr,
    _lowering,
    _mode_product,
    _mode_sum,
    _number,
    boson_basis,
    full_fock_basis,
    projected_restriction,
    sector_embedding,
)
from .model import LatticeModel
from .sector import SectorBasis, enumerate_sector, hole_moves


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """A Hamiltonian on one magnetization sector, with provenance tag.

    ``gauge`` is the +-1 gauge its off-diagonal signs call for, s_i on
    state i, under which every off-diagonal s_i s_j H_ij is to be <= 0;
    None is the identity.  The form states it; ``positivity`` tests it."""

    model: LatticeModel
    m: Fraction
    basis: SectorBasis
    op: SparseHermitian
    provenance: str
    boson: BosonBasis | None = None
    dropped_constant: float = 0.0
    cutoff: int | None = None
    gauge: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.op.dimension


def _require_infinite_u(model: LatticeModel, what: str):
    if not model.u_is_infinite:
        raise ValueError(f"{what} is an infinite-U construction; model has U = {model.onsite_u}")


def _required(block, what: str, kind: str):
    """The model's ``kind`` block, which ``what`` cannot do without."""
    if block is None:
        raise ValueError(f"{what} needs a {kind} block")
    return block


def _config_occupations(basis: SectorBasis) -> np.ndarray:
    """occ[i, x] = electron count at site x in configuration i (0 at the hole)."""
    occ = np.ones((basis.dimension, basis.sites))
    occ[np.arange(basis.dimension), basis.holes] = 0.0
    return occ


def _sector_diagonal(model: LatticeModel, basis: SectorBasis, dressed: bool = False) -> np.ndarray:
    """Off-site Coulomb plus on-site hopping diagonal on configurations.

    ``dressed`` gives the polaron-frame diagonal: the phonon-dressed Coulomb
    matrix, and a site potential that also holds the site-dependent part of
    the displacement energy (zero for uniform diag(g^2)); the scalar part is
    ``lang_firsov_constant``.
    """
    occ = _config_occupations(basis)
    coulomb, potential = model.offsite_u, np.diag(model.hopping)   # t_xx is a site potential
    if dressed:
        coulomb = effective_coulomb(model)
        np.fill_diagonal(coulomb, 0.0)
        gsq_diag = np.diag(model.phonon.coupling @ model.phonon.coupling)
        potential = potential - (gsq_diag - np.mean(gsq_diag)) / model.phonon.frequency
    # ordered pairs; the diagonal of the Coulomb matrix is 0
    return np.einsum("ix,xy,iy->i", occ, coulomb, occ) + occ @ potential


def _diagonal(values: np.ndarray) -> tuple:
    """A diagonal matrix as (rows, cols, vals)."""
    idx = np.arange(len(values))
    return idx, idx, values


def _kron_sum(terms, dims: tuple[int, int]) -> sp.csr_matrix:
    """sum_k A_k (x) B_k from one COO build, each A_k and B_k a (rows, cols,
    vals) triplet over the dims[0] and dims[1] states of its factor, or None
    for its identity; entries that several terms place at one position add,
    after sum_k len(A_k) len(B_k), the count stored, passes the entry budget.
    The terms fill one preallocated triplet in turn, its indices in the
    dtype the COO build would pick, so no entry is held twice before it."""
    n_a, n_b = dims
    blocks = [(n_a if a is None else len(a[0]), n_b if b is None else len(b[0])) for a, b in terms]
    total = sum(p * q for p, q in blocks)
    guard_entries(total, f"a Kronecker sum over {n_a} x {n_b} states")
    index = np.int32 if n_a * n_b <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(total, dtype=index), np.empty(total, dtype=index)
    vals = np.empty(total, dtype=np.result_type(
        np.float64, *(factor[2] for term in terms for factor in term if factor is not None)))
    end = 0
    for (a, b), block in zip(terms, blocks):
        a = _diagonal(np.ones(n_a)) if a is None else a
        b = _diagonal(np.ones(n_b)) if b is None else b
        start, end = end, end + block[0] * block[1]
        for out, i, j in ((rows, a[0], b[0]), (cols, a[1], b[1])):
            np.add(i.astype(np.int64)[:, None] * n_b, j, out=out[start:end].reshape(block))
        np.multiply(a[2][:, None], b[2], out=vals[start:end].reshape(block))
    return _csr([(rows, cols, vals)], n_a * n_b)


def _sector_electron(model: LatticeModel, basis: SectorBasis, dressed: bool = False) -> list:
    """The infinite-U sector matrix as triplets: -t_xy on every hole move,
    and the diagonal (``dressed`` as in ``_sector_diagonal``).  Each
    (target, source) pair comes from exactly one move, so no entries add."""
    rows, cols, xs, ys = hole_moves(model, basis)
    return [(rows, cols, -model.hopping[xs, ys]),
            _diagonal(_sector_diagonal(model, basis, dressed))]


def _dressed_hops(model: LatticeModel, basis: SectorBasis, phase) -> list:
    """(hop block, boson factor) terms for every ordered bond, the block of
    bond (x, y) being its slice of ``hole_moves`` with value -t_xy.
    ``phase(x, y)`` is called for x < y only; the reversed bond carries its
    adjoint, so hermiticity is structural.  Hopping is symmetric and every
    site hosts the hole somewhere, so each bond appears in both directions."""
    rows, cols, xs, ys = hole_moves(model, basis)
    terms = []
    for x, y in zip(*np.nonzero(np.triu(model.hopping, 1))):
        r, c, v = phase(x, y)
        for (a, b), theta in (((x, y), (r, c, v)), ((y, x), (c, r, v.conj()))):
            on = (xs == a) & (ys == b)
            terms.append(((rows[on], cols[on], -model.hopping[xs[on], ys[on]]), theta))
    return terms


def _dressed_sector(model: LatticeModel, m, modes: int, cutoff: int, provenance: str, terms,
                    gauge=None, **fields) -> SectorHamiltonian:
    """Sector M (x) ``modes`` boson modes truncated at ``cutoff``, summed
    from the Kronecker terms ``terms(basis, bosons)`` once U and the budgets
    hold, with the gauge ``gauge(basis, bosons)`` when given; ``fields``
    complete the record."""
    _require_infinite_u(model, "sector assembly")
    basis = enumerate_sector(model, m)
    bosons = boson_basis(modes, cutoff)
    guard_dimension(basis.dimension * bosons.dimension, f"{provenance} sector assembly")
    total = _kron_sum(terms(basis, bosons), (basis.dimension, bosons.dimension))
    return SectorHamiltonian(model=model, m=basis.m, basis=basis, op=SparseHermitian(total),
                             provenance=provenance, boson=bosons, cutoff=cutoff,
                             gauge=None if gauge is None else gauge(basis, bosons), **fields)


def assemble_nagaoka_sector(model: LatticeModel, m) -> SectorHamiltonian:
    """Infinite-U sector Hamiltonian straight from the hole-move rule.

    Every hop contributes the matrix element -t_xy between a configuration
    and its moved image, so -H has entrywise nonnegative off-diagonal part
    in this basis.
    """
    _require_infinite_u(model, "sector assembly")
    basis = enumerate_sector(model, m)
    mat = _csr(_sector_electron(model, basis), basis.dimension)
    return SectorHamiltonian(model=model, m=basis.m, basis=basis,
                             op=SparseHermitian(mat), provenance="direct_formula")


def _hubbard_hops(fock, t: np.ndarray) -> list:
    """The hopping triplets of the Hubbard matrix on the Fock basis
    ``fock``: t_xy c*_(x, spin) c_(y, spin) for every off-diagonal t_xy and
    spin.  Each off-diagonal entry comes from one hop."""
    parts = []
    for x, y in zip(*np.nonzero(t)):
        if x == y:
            continue
        for spin in (UP, DOWN):
            r, c, signs = _bilinear(fock, fock.mode(x, spin), fock.mode(y, spin))
            parts.append((r, c, t[x, y] * signs))
    return parts


def hubbard_electron_matrices(model: LatticeModel, us):
    """``hubbard_electron_matrix`` at each U of ``us`` in turn, as a lazy
    iterator.  Only the U n_up n_down diagonal depends on U: the hopping
    triplets and the rest of the diagonal are built once, when called, after
    every U and the model are checked."""
    if not all(math.isfinite(u) for u in us):
        raise ValueError("finite-U assembly needs a finite U; use the sector forms for U = INFINITE")
    if model.radiation is not None:
        raise ValueError("finite-U full-space assembly has no radiation field; "
                         "the model's [radiation] block would be dropped")
    fock = full_fock_basis(model.sites, model.n_electrons)
    t = model.hopping
    occ = fock.occupations
    parts = _hubbard_hops(fock, t)
    potential = 0.0
    for x in np.nonzero(np.diag(t))[0]:
        for spin in (UP, DOWN):
            potential = potential + t[x, x] * occ[:, spin, x]
    n_site = occ.sum(axis=1).astype(float)
    docc = (occ[:, UP] & occ[:, DOWN]).sum(axis=1)
    offsite = np.einsum("ix,xy,iy->i", n_site, model.offsite_u, n_site)

    def matrix(u):
        diag = potential + (u * docc + offsite)
        on = np.nonzero(diag)[0]
        return _csr(parts + [(on, on, diag[on])], fock.dimension)

    return map(matrix, us)


def hubbard_electron_matrix(model: LatticeModel, u: float) -> sp.csr_matrix:
    """Finite-U Hubbard matrix sum_xy,spin t_xy c*_x c_y + U sum_x n_x,up
    n_x,down + sum_xy U_xy n_x n_y on the fixed-N Fock basis (no bosons),
    from one COO build.  Each off-diagonal entry comes from one hop; t_xx
    is a site potential and joins the diagonal, summed in (x, spin) order.
    A model with a radiation field is refused: this form has none."""
    return next(hubbard_electron_matrices(model, [u]))


def hubbard_full_matrices(model: LatticeModel, us):
    """``assemble_hubbard_full`` at each U of ``us`` in turn, as a lazy
    iterator; the U-independent pieces, phonon terms included, are built
    once, when called."""
    electron = hubbard_electron_matrices(model, us)
    if model.phonon is None:
        return map(SparseHermitian, electron)
    fock = full_fock_basis(model.sites, model.n_electrons)
    bosons = boson_basis(model.sites, model.phonon.per_site_cutoff)
    guard_dimension(fock.dimension * bosons.dimension, "full-space phonon assembly")
    n_site = fock.occupations.sum(axis=1).astype(float)
    phonon_terms = _holstein_terms([], n_site, model.phonon, bosons)

    def matrix(hel):
        coo = hel.tocoo()
        terms = [((coo.row, coo.col, coo.data), None), *phonon_terms]
        return SparseHermitian(_kron_sum(terms, (fock.dimension, bosons.dimension)))

    return map(matrix, electron)


def assemble_hubbard_full(model: LatticeModel, u: float) -> SparseHermitian:
    """Full-space finite-U Hamiltonian; phonon terms included when present.

    With phonons the space is (electrons) x (truncated local oscillators)
    and H gains sum_xy g_xy n_x (b*_y + b_y) + omega N_b.
    """
    return next(hubbard_full_matrices(model, [u]))


def _holstein_terms(electron: list, occ: np.ndarray, phonon, bosons: BosonBasis) -> list:
    """Kronecker terms of electron (x) I + sum_xy g_xy n_x (b*_y + b_y) +
    I (x) omega N_b, with ``electron`` the triplets of the electron matrix
    and ``occ[i, x]`` the electron count at site x in electron state i."""
    b = _lowering(bosons.cutoff)
    terms = [(part, None) for part in electron]
    for y in range(occ.shape[1]):
        gcol = phonon.coupling[:, y]
        if np.any(gcol):
            terms.append((_diagonal(occ @ gcol), _mode_sum({y: b + b.T}, bosons)))
    return terms + [(None, _phonon_energy(phonon, bosons))]


def _phonon_energy(phonon, bosons: BosonBasis) -> tuple:
    """omega N_b, with N_b the boson number summed over every mode."""
    rows, cols, n = _mode_sum(dict.fromkeys(range(bosons.modes), _number(bosons.cutoff)), bosons)
    return rows, cols, phonon.frequency * n


def assemble_nagaoka_projected(model: LatticeModel, m) -> SectorHamiltonian:
    """Infinite-U sector Hamiltonian via projection of the U = 0 matrix.

    Serves as the independent oracle for the fermionic signs: it must agree
    entrywise with the direct formula.
    """
    _require_infinite_u(model, "projected sector assembly")
    basis, _, rows, signs = sector_embedding(model, m)
    hfull = hubbard_electron_matrix(model, u=0.0)
    mat = projected_restriction(hfull, rows, signs)
    return SectorHamiltonian(model=model, m=basis.m, basis=basis,
                             op=SparseHermitian(mat), provenance="projected")


def effective_coulomb(model: LatticeModel) -> np.ndarray:
    """Phonon-dressed Coulomb matrix U_xy - (1/omega) sum_z g_xz g_zy."""
    g = _required(model.phonon, "effective Coulomb", "phonon").coupling
    return model.offsite_u - (g @ g) / model.phonon.frequency


def lang_firsov_constant(model: LatticeModel) -> float:
    """Scalar part of the density-density term generated by the polaron
    displacement: -(1/omega) * mean((g^2)_xx) * N.  Exact whenever the
    diagonal of g^2 is uniform (any diagonal coupling)."""
    g = _required(model.phonon, "the Lang-Firsov constant", "phonon").coupling
    gsq_diag = np.diag(g @ g)
    return -float(np.mean(gsq_diag)) * model.n_electrons / model.phonon.frequency


def boson_parity_gauge(phonon, basis: SectorBasis, bosons: BosonBasis) -> np.ndarray | None:
    """The +-1 gauge of the Holstein form on sector ``basis`` (x) ``bosons``:
    (-1)^{n_y} on every mode y with a positive coupling g_xy, as int8 in the
    order of ``_kron_sum``; None (the identity) when no state changes sign.

    g_xy n_x (b*_y + b_y) links n_y to n_y +- 1, so it flips the sign of
    those entries, and hopping, diagonal in the bosons, keeps its own.  The
    gauge acts on the boson index alone, so it commutes with the spin
    ladder maps (x) I that ``positivity`` lowers by."""
    flipped = [y for y in range(bosons.modes) if np.any(phonon.coupling[:, y] > 0)]
    if not flipped or bosons.cutoff == 0:
        return None
    parity = 1 - 2 * (np.arange(bosons.cutoff + 1, dtype=np.int8) % 2)
    signs = np.ones((), dtype=np.int8)
    for y in flipped:
        signs = signs * parity.reshape((-1,) + (1,) * (bosons.modes - y - 1))
    signs = np.broadcast_to(signs, (bosons.cutoff + 1,) * bosons.modes).ravel()
    return np.tile(signs, basis.dimension)


def assemble_holstein_sector(model: LatticeModel, m, cutoff: int | None = None) -> SectorHamiltonian:
    """Infinite-U electron block tensored with truncated local phonons, in
    the gauge of ``boson_parity_gauge``."""
    ph = _required(model.phonon, "Holstein assembly", "phonon")
    cut = ph.per_site_cutoff if cutoff is None else int(cutoff)
    return _dressed_sector(model, m, model.sites, cut, "holstein_direct", lambda basis, bosons:
                           _holstein_terms(_sector_electron(model, basis),
                                           _config_occupations(basis), ph, bosons),
                           gauge=lambda basis, bosons: boson_parity_gauge(ph, basis, bosons))


def unitary_exp(hermitian: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H via eigendecomposition; exactly unitary."""
    w, v = np.linalg.eigh(hermitian)
    return (v * np.exp(1j * w)) @ v.conjugate().T


def _mode_exponential(c: complex, b: np.ndarray) -> np.ndarray:
    """exp(i (c b + conj(c) b*)).  For imaginary c the generator is i times a
    real antisymmetric matrix, so the exponential is real orthogonal: keep
    the real part, which is bit-identical to that of the complex result,
    and drop imaginary rounding noise of order 1e-16."""
    u = unitary_exp(c * b + np.conj(c) * b.T)
    return u.real if c.real == 0 else u


def _mode_exponentials(amplitudes, cutoff: int) -> dict[int, np.ndarray]:
    """exp(i (c b + conj(c) b*)) on one mode truncated at ``cutoff``, keyed
    by mode, for each nonzero amplitude c; a mode with c = 0 carries the
    identity and is left out.  Factors are float64 unless c has a real part,
    so a product of them is real when every factor is."""
    b = _lowering(cutoff)
    return {z: _mode_exponential(c, b) for z, c in enumerate(amplitudes) if c != 0}


def _polaron_shift(model: LatticeModel, x: int, y: int) -> np.ndarray:
    """Per-mode displacement -sqrt(2) omega^{-3/2} (g_xz - g_yz) of a hop
    from x to y; the polaron phase is exp(i sum_z shift_z p_z)."""
    ph = model.phonon
    return -math.sqrt(2.0) * ph.frequency ** (-1.5) * (ph.coupling[x] - ph.coupling[y])


def _polaron_phase(model: LatticeModel, x: int, y: int, bosons: BosonBasis) -> tuple:
    """theta_xy as a product of single-mode exponentials, in triplets;
    p_z = i sqrt(omega/2) (b*_z - b_z), so shift_z p_z has amplitude
    -i sqrt(omega/2) shift_z on b_z."""
    amplitudes = -1j * math.sqrt(model.phonon.frequency / 2.0) * _polaron_shift(model, x, y)
    return _mode_product(_mode_exponentials(amplitudes, bosons.cutoff), bosons)


def assemble_lang_firsov_sector(model: LatticeModel, m, cutoff: int | None = None) -> SectorHamiltonian:
    """Polaron-frame sector Hamiltonian: phase-dressed hopping plus the
    effective Coulomb diagonal and the free phonon term.

    The hopping phases theta_xy = exp(-i sqrt(2) omega^{-3/2}
    sum_z (g_xz - g_yz) p_z) are products over modes of exponentials of
    truncated Hermitian generators, hence exactly unitary; with p_z =
    i sqrt(omega/2) (b*_z - b_z) each factor is exp(a (b* - b)) for a real
    a, a real orthogonal matrix, so the form is float64.  The scalar part
    of the displacement energy is not added to the matrix; it is reported
    separately as ``dropped_constant`` so energies can be reconciled against
    the direct Holstein form.  Any site-dependent remainder of the
    displacement energy (possible for non-uniform diag(g^2)) stays in the
    matrix.
    """
    ph = _required(model.phonon, "polaron-frame assembly", "phonon")
    cut = ph.per_site_cutoff if cutoff is None else int(cutoff)

    def terms(basis, bosons):
        return (_dressed_hops(model, basis, lambda x, y: _polaron_phase(model, x, y, bosons))
                + [(_diagonal(_sector_diagonal(model, basis, dressed=True)), None),
                   (None, _phonon_energy(ph, bosons))])

    return _dressed_sector(model, m, model.sites, cut, "lang_firsov", terms,
                           dropped_constant=lang_firsov_constant(model))


def _hole_field_energy(phonon, hole: int, bosons: BosonBasis) -> tuple:
    """V_h^T omega N_b V_h for the hole at site ``hole``, V_h = (x)_z
    E(-lambda_hz): omega E n E^T on every mode z with lambda_hz = g_hz /
    omega nonzero, E = E(lambda_hz), and omega n on the others.  E n E^T
    is symmetrized, so the form is exactly symmetric."""
    n = _number(bosons.cutoff)
    factors = dict.fromkeys(range(bosons.modes), n)
    lam = phonon.coupling[hole] / phonon.frequency
    for z, e in _mode_exponentials(1j * lam, bosons.cutoff).items():
        moved = e @ n @ e.T
        factors[z] = 0.5 * (moved + moved.T)
    return _mode_sum({z: phonon.frequency * f for z, f in factors.items()}, bosons)


def assemble_lang_firsov_hole_sector(model: LatticeModel, m,
                                     cutoff: int | None = None) -> SectorHamiltonian:
    """The polaron frame in its hole-displaced basis: the matrix
    ``assemble_lang_firsov_sector`` gives, rotated by the orthogonal
    W = sum_i |i><i| (x) V_h(i), with h(i) the hole site of configuration i
    and V_h = (x)_z E(-lambda_hz), E(s) = exp(s (b* - b)) on one mode
    (``_mode_exponential``), lambda_hz = g_hz / omega.

    Every polaron phase is theta_xy = (x)_z E(lambda_xz - lambda_yz) =
    V_y V_x^T, as the E(s) on one mode commute, so W^T H W has the bare
    -t_xy (x) I on every hole move, keeps the dressed diagonal (x) I, and
    turns I (x) omega N_b into sum_h P_h (x) V_h^T omega N_b V_h, with P_h
    the projection on the configurations whose hole is at h
    (``_hole_field_energy``).  The spectrum is that of the polaron frame,
    within rounding, and with one dense single-mode factor per coupled
    (hole, mode) pair in place of a dense phase per hop it stores several
    times fewer entries.  The spin ladder maps and the spin flip keep the
    hole in place, so they commute with W."""
    ph = _required(model.phonon, "polaron-frame assembly", "phonon")
    cut = ph.per_site_cutoff if cutoff is None else int(cutoff)

    def terms(basis, bosons):
        hole_frame = []
        for h in range(basis.sites):                    # P_h (x) V_h^T omega N_b V_h
            on = np.nonzero(basis.holes == h)[0]
            hole_frame.append(((on, on, np.ones(on.size)), _hole_field_energy(ph, h, bosons)))
        return [(part, None) for part in _sector_electron(model, basis, dressed=True)] + hole_frame

    return _dressed_sector(model, m, model.sites, cut, "lang_firsov_hole", terms,
                           dropped_constant=lang_firsov_constant(model))


def _oscillator_matrix(points: int, spacing: float, frequency: float) -> np.ndarray:
    """Second-difference-plus-quadratic oscillator on a Dirichlet grid,
    shifted by -omega/2 so its spectrum approximates omega {0, 1, 2, ...}.
    Off-diagonal entries are negative, so -H is entrywise >= 0.  A spacing
    so small or so large that an entry is not a finite float is refused."""
    q = (np.arange(points) - (points - 1) / 2.0) * spacing
    with np.errstate(over="ignore", divide="ignore"):
        kinetic = 1.0 / np.square(np.float64(spacing))
        potential = 0.5 * frequency**2 * q**2 - 0.5 * frequency
    if not (np.isfinite(kinetic) and np.isfinite(potential).all()):
        raise ModelValidationError(
            "grid", f"spacing {spacing!r} with {points} points gives non-finite oscillator entries")
    off = np.full(points - 1, -0.5 * kinetic)
    return np.diag(kinetic + potential) + np.diag(off, 1) + np.diag(off, -1)


def assemble_qgrid_sector(model: LatticeModel, m, points: int, spacing: float) -> SectorHamiltonian:
    """The polaron frame on a grid of ``points`` positions per site (cutoff
    points - 1), where each hopping phase is an exact index shift: every
    displacement sqrt(2) omega^{-3/2} (g_xz - g_yz) must be a multiple of
    the spacing, since interpolating would add negative weights and break
    the cone that ``positivity`` certifies on this basis.  A nonzero
    displacement must be at least one step and fewer steps than the grid
    has points: either bound missed would drop the hopping phase silently."""
    ph = _required(model.phonon, "position-grid assembly", "phonon")
    if model.sites > 3:
        raise ModelValidationError("budget", "position-grid assembly supports at most 3 sites")

    def terms(basis, grid):
        def shift(x: int, y: int) -> tuple:     # 0/1 translations, zero fill at the walls
            steps = {}
            for z, a in enumerate(_polaron_shift(model, x, y)):
                ratio = a / spacing
                where = f"displacement {a} for bond ({x}, {y}) mode {z}"
                if not abs(ratio) < points - 0.5:        # a shift of >= points steps
                    raise ModelValidationError(
                        "commensurability", f"{where} is {ratio:.6g} grid spacings of "
                        f"{spacing}, a shift past the {points}-point grid")
                step = round(ratio)
                if abs(ratio - step) > 1e-9:
                    raise ModelValidationError(
                        "commensurability",
                        f"{where} is not an integer multiple of the grid spacing {spacing}")
                if a and not step:
                    raise ModelValidationError(
                        "commensurability",
                        f"{where} is nonzero but rounds to no step of the grid spacing {spacing}")
                if step:
                    steps[z] = np.eye(points, k=step)
            return _mode_product(steps, grid)

        osc = dict.fromkeys(range(model.sites), _oscillator_matrix(points, spacing, ph.frequency))
        return (_dressed_hops(model, basis, shift)
                + [(_diagonal(_sector_diagonal(model, basis, dressed=True)), None),
                   (None, _mode_sum(osc, grid))])

    return _dressed_sector(model, m, model.sites, points - 1, GRID_FORM, terms,
                           dropped_constant=lang_firsov_constant(model))


# ---------------------------------------------------------------------------
# radiation: quantized straight-line hopping phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhotonMode:
    """One (k, lambda) mode of the box field."""

    nvec: tuple[int, int, int]    # k in units of 2 pi / L
    lam: int                      # polarization index, 1 or 2
    k: np.ndarray                 # wave vector
    omega: float                  # |k|, or the mass at k = 0
    eps: np.ndarray               # polarization vector (zero when k1 = k2 = 0)


def photon_modes(model: LatticeModel) -> list[PhotonMode]:
    """Mode set {(k, lambda): 0 < |k| <= kappa} plus the k = 0 pair,
    ordered lexicographically in (k, lambda).

    A set of more modes than a boson basis holds (``MAX_MODES``, whatever
    the cutoff) is refused before any mode is built.  Past 7 units of
    2 pi / L the 37 axis vectors (+-n, 0, 0), ..., n <= 6, alone carry 74
    modes, so the walk over the (2 nmax + 1)^3 candidates stops at
    nmax = 7, at most 3375 of them."""
    rad = _required(model.radiation, "the photon mode set", "radiation")
    unit = 2.0 * math.pi / rad.box_length
    nmax = int(math.floor(min(rad.uv_cutoff / unit + 1e-12, 7)))       # kappa L may overflow
    nvecs = [(nx, ny, nz) for nx, ny, nz in product(range(-nmax, nmax + 1), repeat=3)   # ascending
             if (nx, ny, nz) == (0, 0, 0)
             or unit * math.sqrt(nx * nx + ny * ny + nz * nz) <= rad.uv_cutoff + 1e-12]
    if 2 * len(nvecs) > MAX_MODES:                      # two polarizations per k
        raise DimensionBudgetError(f"the radiation mode set holds more than {MAX_MODES} modes, "
                                   "the most a boson basis holds")
    modes = []
    for nvec in nvecs:
        k = unit * np.array(nvec, dtype=float)
        norm = float(np.linalg.norm(k))
        omega = norm if norm > 0 else rad.mass
        if k[0] == 0.0 and k[1] == 0.0:
            eps1 = np.zeros(3)
            eps2 = np.zeros(3)
        else:
            perp = math.hypot(k[0], k[1])
            eps1 = np.array([k[1], -k[0], 0.0]) / perp
            eps2 = np.cross(k / norm, eps1)
        for lam, eps in ((1, eps1), (2, eps2)):
            modes.append(PhotonMode(nvec=nvec, lam=lam, k=k, omega=omega, eps=eps))
    return modes


def peierls_kernel(x, y, k) -> complex:
    """Straight-line phase kernel (e^{ik.y} - e^{ik.x}) / (i k.(y-x)).

    Evaluated through the stable half-angle form, so the k.(y-x) -> 0 limit
    e^{ik.x} comes out exactly; |kernel| <= 1 always.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        raise ValueError("kernel needs two distinct endpoints")
    k = np.asarray(k, dtype=float)
    theta = float(k @ (y - x))
    # (e^{i theta} - 1)/(i theta) = e^{i theta/2} sinc(theta/2)
    return complex(np.exp(1j * (k @ x)) * np.exp(0.5j * theta) * np.sinc(theta / (2.0 * math.pi)))


def riemann_kernel(x, y, k, n_segments: int) -> complex:
    """Riemann-sum approximation of the straight-line kernel with N+1
    equally weighted samples; converges to the exact kernel like 1/N."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = np.asarray(k, dtype=float)
    total = 0.0j
    for j in range(1, n_segments + 2):
        point = x + (j - 1) / n_segments * (y - x)
        total += np.exp(1j * (k @ point))
    return complex(total / n_segments)


def _mode_coefficients(model: LatticeModel, modes, x: int, y: int) -> np.ndarray:
    """Per-mode complex amplitude of the line-integrated vector potential
    between two sites; the operator is sum_j (c_j a_j + conj(c_j) a*_j)."""
    rad = model.radiation
    pos = rad.site_positions
    volume = rad.box_length ** 3
    coeffs = np.zeros(len(modes), dtype=complex)
    for j, mode in enumerate(modes):
        direction = float(mode.eps @ (pos[y] - pos[x]))
        if direction == 0.0:
            continue
        coeffs[j] = (direction / math.sqrt(2.0 * mode.omega * volume)
                     * peierls_kernel(pos[x], pos[y], mode.k))
    return coeffs


def peierls_unitary(model: LatticeModel, modes, x: int, y: int, basis: BosonBasis) -> tuple:
    """exp(i phase) for the Hermitian line-integral field operator between
    sites x and y, built as a product of commuting single-mode exponentials.

    Exactly equal to the matrix exponential of the truncated phase (the
    summands act on disjoint tensor factors) and exactly unitary.  Returned
    as (rows, cols, vals); modes the bond does not couple are identity
    factors.
    """
    return _mode_product(_mode_exponentials(_mode_coefficients(model, modes, x, y), basis.cutoff),
                         basis)


def assemble_radiation_sector(model: LatticeModel, m, cutoff: int | None = None,
                              modes: list[PhotonMode] | None = None) -> SectorHamiltonian:
    """Infinite-U sector Hamiltonian with quantized hopping phases.

    H = sum over bonds of (hole move) x (-t_xy e^{i phase_xy}) + field
    energy + the Coulomb diagonal.  Reversed bonds carry the adjoint phase
    (path reversal flips the phase sign), so hermiticity is structural.
    ``modes`` overrides the model's mode set for reduced desk-scale runs.
    """
    rad = _required(model.radiation, "radiation assembly", "radiation")
    cut = rad.photon_cutoff if cutoff is None else int(cutoff)
    if modes is None:
        modes = photon_modes(model)

    def terms(basis, bosons):
        field = _mode_sum({j: mode.omega * _number(cut) for j, mode in enumerate(modes)}, bosons)
        hops = _dressed_hops(model, basis, lambda x, y: peierls_unitary(model, modes, x, y, bosons))
        return hops + [(_diagonal(_sector_diagonal(model, basis)), None), (None, field)]

    return _dressed_sector(model, m, len(modes), cut, "radiation", terms)


#: The sector forms by name, each called as (model, m, cutoff); the Nagaoka
#: form has no bosons and no cutoff.  The assemblers are looked up when
#: called, so a wrapped one is the one used.
SECTOR_FORMS = {
    "nagaoka": lambda model, m, cutoff: assemble_nagaoka_sector(model, m),
    "holstein": lambda model, m, cutoff: assemble_holstein_sector(model, m, cutoff),
    "langfirsov": lambda model, m, cutoff: assemble_lang_firsov_sector(model, m, cutoff),
    "radiation": lambda model, m, cutoff: assemble_radiation_sector(model, m, cutoff),
}

#: The polaron frame on position grids (``certify --qgrid``); cutoff (points, spacing).
GRID_FORM = "qgrid"

#: The polaron frame in its hole-displaced basis, which ``ed`` solves for ``langfirsov``.
HOLE_FRAME_FORM = "langfirsov_hole"


def assemble_sector(model: LatticeModel, form: str, m,
                    cutoff: int | tuple[int, float] | None = None) -> SectorHamiltonian:
    """Sector M of the form named ``form``: a key of ``SECTOR_FORMS`` or
    ``HOLE_FRAME_FORM`` at ``cutoff``, or ``GRID_FORM`` on the grid
    ``cutoff`` = (points, spacing)."""
    if form == GRID_FORM:
        return assemble_qgrid_sector(model, m, *cutoff)
    if form == HOLE_FRAME_FORM:
        return assemble_lang_firsov_hole_sector(model, m, cutoff)
    return SECTOR_FORMS[form](model, m, cutoff)
