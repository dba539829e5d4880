"""Executable positivity machinery on distinguished bases.

The distinguished cone is always the nonnegative-coefficient cone over a
concrete basis: the configuration basis of a sector, or its product with a
position grid for the phonon-dressed case (the grid form is assembled in
``hamiltonian``; this module only certifies it).  In that setting

* an operator preserves positivity iff its matrix is entrywise >= 0,
* the exponential of such an operator improves positivity iff the support
  digraph is strongly connected,
* a Hamiltonian whose negated off-diagonal part is entrywise >= 0 and
  irreducible has a unique, entrywise strictly positive ground vector.

The certificates below check those statements numerically and treat any
violation of the last implication as a hard inconsistency, since it can
only come from a solver failure.

Nagaoka's theorem (Phys. Rev. 147, 392 (1966); Tasaki, Prog. Theor. Phys.
99, 489 (1998)) is the same statement carried across sectors: S- has
entries in {0, 1} and commutes with H, so where a sector and the polarized
sector both satisfy the hypotheses, the lowered polarized ground vector is
the sector's unique ground vector.  ``SectorCertifier`` certifies such a
sector from the polarized sector's solve alone, and any other one from its
own ground vector, the route that stays the theorem route's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, InconsistencyError
from .hamiltonian import assemble_nagaoka_sector, assemble_qgrid_sector
from .manybody import sector_ladder, sector_lowering_fock
from .model import LatticeModel
from .sector import enumerate_sector
from .spectral import as_matrix, check_residuals, ground_cluster, sign_structure

STRICT_POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class PositivityCertificate:
    offdiag_sign_ok: bool
    irreducible: bool
    ground_unique: bool
    ground_strictly_positive: bool
    min_entry: float
    basis_tag: str


def preserves_positivity(a) -> bool:
    """Entrywise nonnegativity in the distinguished basis: every entry real and >= 0."""
    data = as_matrix(a).data
    return bool(np.all(data.real >= 0.0) and np.all(data.imag == 0.0))


def improves_positivity_exp(a) -> bool:
    """Whether exp(A) is entrywise strictly positive for an entrywise
    nonnegative A: every pair must be linked by some power of A, which is
    strong connectivity of the support digraph (the zeroth power covers the
    diagonal)."""
    mat = as_matrix(a)
    if not preserves_positivity(mat):
        raise ValueError("defined only for positivity-preserving matrices")
    n_comp, _ = connected_components(abs(mat), directed=True, connection="strong")
    return n_comp <= 1


def ergodicity_certificate(h) -> bool:
    """Connectivity of the off-diagonal support graph of -H: at most one
    block.  On a configuration-basis Hamiltonian this is, by construction,
    the same predicate as the hole-move connectivity of the sector."""
    return sign_structure(as_matrix(h))[1].size <= 1


def _hypotheses(structure) -> tuple[bool, bool]:
    """The sign test and the irreducibility of a ``sign_structure`` result:
    every off-diagonal entry of -H >= 0 up to the positivity threshold, and
    one block."""
    _, sizes, re_max, im_max = structure
    tol = STRICT_POSITIVITY_TOL
    return bool(np.all(re_max <= tol) and np.all(im_max <= tol)), sizes.size <= 1


def _phase_normalized(v: np.ndarray) -> np.ndarray:
    """``v`` times the phase that makes its largest-magnitude entry positive."""
    v = np.asarray(v).ravel()
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * np.conj(pivot) / abs(pivot)


def pf_certificate(h, ground_vector: np.ndarray, degeneracy: int,
                   basis_tag: str = "configuration", structure=None) -> PositivityCertificate:
    """Certificate tying the sign structure of -H to ground-state uniqueness
    and strict positivity.

    The ground vector's global phase is normalized so its largest-magnitude
    entry is positive; strict positivity then means every entry exceeds the
    threshold.  If the sign structure and irreducibility hold but uniqueness
    or positivity fail, the certificate raises instead of reporting, because
    the implication is a theorem at finite dimension.  ``structure`` is
    ``sign_structure`` of H when the caller has it already.
    """
    tol = STRICT_POSITIVITY_TOL
    sign_ok, irreducible = _hypotheses(
        sign_structure(as_matrix(h)) if structure is None else structure)
    v = _phase_normalized(ground_vector)
    real_ok = not np.iscomplexobj(v) or float(np.max(np.abs(v.imag))) <= tol
    min_entry = float(np.min(v.real))
    unique = degeneracy == 1
    strictly_positive = bool(real_ok and min_entry > tol)

    if sign_ok and irreducible and not (unique and strictly_positive):
        raise InconsistencyError(
            f"sign structure and irreducibility hold but degeneracy = {degeneracy}, "
            f"min entry = {min_entry:.3e}; the eigensolve cannot be trusted")
    return PositivityCertificate(
        offdiag_sign_ok=sign_ok, irreducible=irreducible, ground_unique=unique,
        ground_strictly_positive=strictly_positive, min_entry=min_entry,
        basis_tag=basis_tag)


def diagonal_perturbation_equivalence(h, diagonal) -> bool:
    """Adding any real diagonal never changes the ergodicity certificate:
    diagonal operators leave the off-diagonal support graph untouched."""
    mat = as_matrix(h)
    d = np.asarray(diagonal, dtype=float)
    if d.shape != (mat.shape[0],):
        raise ValueError(f"diagonal must have length {mat.shape[0]}")
    return ergodicity_certificate(mat) == ergodicity_certificate(mat + sp.diags(d))


def spin_lowering_positivity(model: LatticeModel, m) -> bool:
    """The sector-to-sector spin-lowering matrix, built from the fermionic
    operator, must be entrywise in {0, +1} with one entry per flippable up
    spin, i.e. column sums equal to n_up of the source sector.  This is the
    statement that the direct rule of ``manybody.sector_ladder`` is the
    fermionic S- in the canonical basis."""
    low, basis_hi, _ = sector_lowering_fock(model, m)
    dense = low.toarray()
    near_zero = np.abs(dense) <= 1e-12
    near_one = np.abs(dense - 1.0) <= 1e-12
    if not np.all(near_zero | near_one):
        return False
    col_sums = dense.sum(axis=0)
    return bool(np.all(np.abs(col_sums - basis_hi.n_up) <= 1e-9))


# ---------------------------------------------------------------------------
# configuration-basis certificates by Nagaoka's theorem
# ---------------------------------------------------------------------------

def _solved_certificate(h, structure) -> tuple:
    """E0, the ground vector and ``pf_certificate`` of H, from
    ``ground_cluster``."""
    _, e0, degeneracy, _, v0 = ground_cluster(as_matrix(h))
    return float(e0), v0, pf_certificate(h, v0, degeneracy, structure=structure)


def eigenvector_certificate(h, structure=None) -> PositivityCertificate:
    """``pf_certificate`` of H on the ground vector and degeneracy of
    ``ground_cluster``."""
    return _solved_certificate(h, structure)[2]


class SectorCertifier:
    """Certificates of the infinite-U sectors of one model in the
    configuration basis, each H_M as ``assemble_nagaoka_sector`` builds it.

    Where H_M and the polarized H_P (P = S_max for M >= 0, -S_max for
    M < 0) both pass the sign test and are one block each, Nagaoka's theorem
    certifies M with no solve of H_M: the lowering maps have entries in
    {0, 1} and commute with H, so the strictly positive ground vector of H_P,
    walked to M by S- (by S+ from -S_max), is a nonnegative eigenvector of
    H_M, hence its unique ground vector.  Only H_P is solved.  The walk runs
    from the basis of H_P to ``h.basis`` and enumerates only the sectors
    between them; it is kept between calls, so sectors taken in descending
    |M| share one walk.
    The lowered vector must be an eigenvector of H_M at E_P within the
    residual tolerance, and strictly positive, or InconsistencyError is
    raised.  Any other sector takes ``eigenvector_certificate``, on the sign
    structure read for the choice.
    """

    def __init__(self, model: LatticeModel):
        self.model = model
        self._tops = {}      # P -> (basis, E_P, ground vector, certificate), or False
        self._walks = {}     # P -> (basis, vector) of the last sector the walk reached

    def __call__(self, h) -> PositivityCertificate:
        structure = sign_structure(as_matrix(h))
        return self.by_theorem(h, structure) or eigenvector_certificate(h, structure)

    def by_theorem(self, h, structure=None) -> PositivityCertificate | None:
        """The certificate of sector ``h`` by the theorem; None where a
        hypothesis fails."""
        structure = sign_structure(as_matrix(h)) if structure is None else structure
        if not all(_hypotheses(structure)):
            return None
        top = Fraction(self.model.sites - 1, 2) * (1 if h.m >= 0 else -1)
        if top not in self._tops:
            h_top = h if h.m == top else assemble_nagaoka_sector(self.model, top)
            top_structure = structure if h_top is h else sign_structure(as_matrix(h_top))
            self._tops[top] = (all(_hypotheses(top_structure))
                               and (h_top.basis, *_solved_certificate(h_top, top_structure)))
        if not self._tops[top]:
            return None
        basis_top, e_top, v0, cert = self._tops[top]   # pf_certificate raised unless v0 > 0
        if h.m == top:
            return cert
        phi = _phase_normalized(v0).real
        basis, v = self._walks.get(top, (basis_top, phi))
        if abs(basis.m) < abs(h.m):
            basis, v = basis_top, phi
        step = -1 if top > 0 else 1
        while basis.m != h.m:
            m = basis.m + step
            target = h.basis if m == h.m else enumerate_sector(self.model, m)
            v, basis = sector_ladder(basis, target) @ v, target
        self._walks[top] = (basis, v)
        w = v / np.linalg.norm(v)
        try:
            check_residuals(as_matrix(h) @ w[:, None], np.array([e_top]), w[:, None])
        except ConvergenceError as exc:
            raise InconsistencyError(f"the lowered polarized ground vector is not an eigenvector "
                                     f"of sector M = {h.m}: {exc}") from None
        min_entry = float(np.min(w))
        if not min_entry > STRICT_POSITIVITY_TOL:
            raise InconsistencyError(f"the lowered polarized ground vector of sector M = {h.m} "
                                     f"has min entry {min_entry:.3e}")
        return PositivityCertificate(
            offdiag_sign_ok=True, irreducible=True, ground_unique=True,
            ground_strictly_positive=True, min_entry=min_entry, basis_tag="configuration")


# ---------------------------------------------------------------------------
# position-grid certificate for the phonon-dressed sector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCertificate:
    certificate: PositivityCertificate
    ground_energy: float
    dropped_constant: float
    points: int
    spacing: float


def qgrid_holstein_certify(model: LatticeModel, m, points: int, spacing: float) -> GridCertificate:
    """``assemble_qgrid_sector`` certified in the product cone basis, with
    the degeneracy and ground vector of the block-wise solve behind
    ``ground_report``: a Lanczos-solved grid finds every copy of its ground
    level by deflation, and a reducible grid reports its lowest block's."""
    h = assemble_qgrid_sector(model, m, points, spacing)
    _, e0, degeneracy, _, v0 = ground_cluster(h.op.matrix)
    cert = pf_certificate(h, v0, degeneracy, basis_tag="configuration x grid")
    if not cert.offdiag_sign_ok:
        raise InconsistencyError("grid assembly lost the off-diagonal sign structure")
    return GridCertificate(certificate=cert, ground_energy=float(e0),
                           dropped_constant=h.dropped_constant, points=points, spacing=spacing)
