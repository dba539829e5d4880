"""Executable positivity machinery on distinguished bases.

The distinguished cone is always the nonnegative-coefficient cone over a
concrete basis: the configuration basis of a sector, or its product with
boson occupations or with a position grid (``hamiltonian.GRID_FORM``, the
polaron frame in the Schroedinger representation).  In that setting

* an operator preserves positivity iff its matrix is entrywise >= 0,
* the exponential of such an operator improves positivity iff the support
  digraph is strongly connected,
* a Hamiltonian whose negated off-diagonal part is entrywise >= 0 and
  irreducible has a unique, entrywise strictly positive ground vector.

The certificates below check those statements numerically and treat any
violation of the last implication as a hard inconsistency, since it can
only come from a solver failure.

A sector form states the +-1 gauge s its off-diagonal signs call for
(``SectorHamiltonian.gauge``; (-1)^{n_y} on the positively coupled modes of
the Holstein form), and the cone is then the one over the gauged basis
vectors s_i e_i: the sign test reads s_i s_j H_ij, in the same pass as the
blocks, so a wrong gauge fails it and never certifies.  The tests hold a
gauge search (a BFS two-colouring of the signed graph, Harary, Michigan
Math. J. 2, 143 (1953)) as the oracle of the stated gauges.

Nagaoka's theorem (Phys. Rev. 147, 392 (1966); Tasaki, Prog. Theor. Phys.
99, 489 (1998)) is the same statement carried across sectors: S- (x) I has
entries in {0, 1} and commutes with H and with a gauge on the bosons, so
where a sector and the polarized sector both satisfy the hypotheses, the
lowered polarized ground vector is the sector's unique ground vector.
``SectorCertifier`` certifies such a sector from the polarized sector's
solve alone, and any other one from its own ground vector, the route that
stays the theorem route's oracle; it also hands ``ed`` the lowered ground
pair in place of a solve, and certifies position grids as it does the
Fock forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, InconsistencyError
from .hamiltonian import GRID_FORM, SectorHamiltonian, assemble_sector
from .manybody import sector_ladder, sector_lowering_fock
from .model import LatticeModel
from .sector import enumerate_sector
from .spectral import (
    SpectralReport,
    as_matrix,
    check_residuals,
    cluster_report,
    ground_cluster,
    lowered_report,
    sign_structure,
    uses_lanczos,
)

STRICT_POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class PositivityCertificate:
    offdiag_sign_ok: bool
    irreducible: bool
    ground_unique: bool
    ground_strictly_positive: bool
    min_entry: float
    basis_tag: str
    ground_energy: float | None = None    # of the solve behind it, where the caller gives one


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


def _gauge(h) -> np.ndarray | None:
    """The gauge a sector form states for ``h``; None (the identity) for a
    bare matrix."""
    return h.gauge if isinstance(h, SectorHamiltonian) else None


def _in_gauge(h, v: np.ndarray) -> np.ndarray:
    """The vector ``v`` of ``h``'s space in the gauge of ``h``, s_i v_i."""
    gauge = _gauge(h)
    return v if gauge is None else gauge * v


def _structure(h):
    """``sign_structure`` of H read in its gauge."""
    return sign_structure(as_matrix(h), _gauge(h))


def _basis_tag(h) -> str:
    """The cone basis of ``h``: configurations, times grid positions or
    boson occupations, in the gauge when the form states one."""
    if not isinstance(h, SectorHamiltonian) or h.boson is None:
        return "configuration"
    if h.provenance == GRID_FORM:
        return "configuration x grid"
    return "configuration x boson" + (" (gauged)" if h.gauge is not None else "")


def _hypotheses(structure) -> tuple[bool, bool]:
    """The sign test and the irreducibility of a ``sign_structure`` result:
    every off-diagonal entry of -H >= 0 up to the positivity threshold, and
    one block."""
    _, sizes, re_max, im_max = structure
    tol = STRICT_POSITIVITY_TOL
    return bool(np.all(re_max <= tol) and np.all(im_max <= tol)), sizes.size <= 1


def _min_entry(value: float) -> str:
    """A min entry for a message, naming the threshold where it lies within it of 0."""
    near = f", within STRICT_POSITIVITY_TOL = {STRICT_POSITIVITY_TOL} of 0 (below float resolution)"
    return f"min entry {value:.3e}" + (near if abs(value) <= STRICT_POSITIVITY_TOL else "")


def _phase_normalized(v: np.ndarray) -> np.ndarray:
    """``v`` times the phase that makes its largest-magnitude entry positive."""
    v = np.asarray(v).ravel()
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * np.conj(pivot) / abs(pivot)


def pf_certificate(h, ground_vector: np.ndarray, degeneracy: int, structure=None,
                   ground_energy: float | None = None) -> PositivityCertificate:
    """Certificate tying the sign structure of -H to ground-state uniqueness
    and strict positivity, both read in the gauge ``h`` states.

    The ground vector's global phase is normalized so its largest-magnitude
    entry is positive; strict positivity then means every entry exceeds the
    threshold.  If the sign structure and irreducibility hold but uniqueness
    or positivity fail, the certificate raises instead of reporting, because
    the implication is a theorem at finite dimension; where the level is
    simple and real and only the min entry lies within the threshold of 0,
    the message says so.  ``structure`` is ``sign_structure`` of H in its
    gauge when the caller has it already; ``ground_energy`` is recorded.
    """
    tol = STRICT_POSITIVITY_TOL
    sign_ok, irreducible = _hypotheses(_structure(h) if structure is None else structure)
    v = _phase_normalized(_in_gauge(h, ground_vector))
    real_ok = not np.iscomplexobj(v) or float(np.max(np.abs(v.imag))) <= tol
    min_entry = float(np.min(v.real))
    unique = degeneracy == 1
    strictly_positive = bool(real_ok and min_entry > tol)

    if sign_ok and irreducible and not (unique and strictly_positive):
        if unique and real_ok and min_entry >= -tol:
            raise InconsistencyError(f"sign structure and irreducibility hold and the ground level "
                                     f"is simple, but strict positivity fails at its "
                                     f"{_min_entry(min_entry)}")
        raise InconsistencyError(
            f"sign structure and irreducibility hold but degeneracy = {degeneracy}, "
            f"min entry = {min_entry:.3e}; the eigensolve cannot be trusted")
    return PositivityCertificate(
        offdiag_sign_ok=sign_ok, irreducible=irreducible, ground_unique=unique,
        ground_strictly_positive=strictly_positive, min_entry=min_entry,
        basis_tag=_basis_tag(h), ground_energy=ground_energy)


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
# certificates and ground pairs by Nagaoka's theorem
# ---------------------------------------------------------------------------

def eigenvector_certificate(h, structure=None) -> PositivityCertificate:
    """``pf_certificate`` of H on the ground vector and degeneracy of
    ``ground_cluster``, with its ground energy."""
    _, e0, degeneracy, _, v0 = ground_cluster(as_matrix(h))
    return pf_certificate(h, v0, degeneracy, structure, float(e0))


class SectorCertifier:
    """Nagaoka's theorem on the infinite-U sectors of one model, each H_M
    in the form ``form`` of ``hamiltonian.assemble_sector`` at ``cutoff``
    ((points, spacing) for the grid form), read in the gauge the form
    states.

    Where H_M and the polarized H_P (P = S_max for M >= 0, -S_max for
    M < 0) both pass the sign test and are one block each, the theorem
    gives the ground vector of H_M with no solve of H_M: the ladder maps
    (x) I have entries in {0, 1} and commute with H and with the gauge, so
    the ground vector of H_P, positive in the gauge and walked to M by S-
    (by S+ from -S_max), is an eigenvector of H_M that is nonnegative in the
    gauge, hence its unique ground vector.  ``_step`` takes that step, once
    for both callers: calling the certifier certifies a sector, by the
    theorem (``by_theorem``) or else by ``eigenvector_certificate`` on the
    sign structure read for the choice, and ``report`` gives ``ed``'s
    report where the theorem saves a solve.  A certificate carries its
    route's ground energy (E_P where lowered).  A grid sector that fails the
    sign test raises InconsistencyError: the grid form is built on the cone.
    """

    def __init__(self, model: LatticeModel, form: str = "nagaoka",
                 cutoff: int | tuple[int, float] | None = None):
        self.model, self.form, self.cutoff = model, form, cutoff
        self._tops = {}      # P -> [H_P, its sign structure, its ground_cluster once solved]
        self._walks = {}     # P -> (basis, vector, previous basis) of the walk's last sector

    def __call__(self, h) -> PositivityCertificate:
        structure = _structure(h)
        if self.form == GRID_FORM and not _hypotheses(structure)[0]:
            raise InconsistencyError("grid assembly lost the off-diagonal sign structure")
        return self.by_theorem(h, structure) or eigenvector_certificate(h, structure)

    def _polarized_m(self, h) -> Fraction:
        """The polarized sector P on the side of ``h``."""
        return Fraction(self.model.sites - 1, 2) * (1 if h.m >= 0 else -1)

    def _step(self, h, structure=None):
        """The theorem's step to sector ``h``: None where H_M or H_P fails a
        hypothesis; else ``ground_cluster`` of H_P when ``h`` is P, and
        otherwise (E_P, the lowered unit vector, the basis the walk left for
        ``h.basis``).

        H_P is ``h`` itself, with ``structure`` when given, if it is the
        first sector asked for, and else assembled; it is solved once, when
        its hypotheses first hold.  The walk runs from the basis of H_P to
        ``h.basis`` and enumerates only the sectors between them; it is kept
        between calls, so sectors taken in descending |M| share one walk.
        InconsistencyError unless the ground level of H_P is simple, as the
        theorem makes it, and the lowered vector is an eigenvector of H_M at
        E_P within the residual tolerance.
        """
        structure = _structure(h) if structure is None else structure
        if not all(_hypotheses(structure)):
            return None
        key = self._polarized_m(h)
        if key not in self._tops:
            h_top = h if h.m == key else assemble_sector(self.model, self.form, key, self.cutoff)
            self._tops[key] = [h_top, structure if h_top is h else _structure(h_top), None]
        record = self._tops[key]
        h_top, top_structure, solved = record
        if not all(_hypotheses(top_structure)):
            return None
        if solved is None:
            solved = record[2] = ground_cluster(as_matrix(h_top))
        if h.m == key:
            return solved
        _, e_top, degeneracy, _, v0 = solved
        if degeneracy != 1:
            raise InconsistencyError(f"the polarized sector M = {key} passes the sign test "
                                     f"and is one block, but its ground level has degeneracy "
                                     f"{degeneracy}")
        phi = _in_gauge(h_top, _phase_normalized(_in_gauge(h_top, v0)).real)
        basis, v, previous = self._walks.get(key, (h_top.basis, phi, None))
        if abs(basis.m) < abs(h.m):
            basis, v, previous = h_top.basis, phi, None
        step = -1 if key > 0 else 1
        while basis.m != h.m:
            m = basis.m + step
            target = h.basis if m == h.m else enumerate_sector(self.model, m)
            v = (sector_ladder(basis, target) @ v.reshape(basis.dimension, -1)).ravel()
            basis, previous = target, basis
        self._walks[key] = (basis, v, previous)
        w = v / np.linalg.norm(v)
        try:
            check_residuals(as_matrix(h) @ w[:, None], np.array([e_top]), w[:, None])
        except ConvergenceError as exc:
            raise InconsistencyError(f"the lowered polarized ground vector is not an eigenvector "
                                     f"of sector M = {h.m}: {exc}") from None
        return float(e_top), w, previous

    def by_theorem(self, h, structure=None) -> PositivityCertificate | None:
        """The certificate of sector ``h`` by the theorem; None where a
        hypothesis fails.  H_P's own certificate must hold (``pf_certificate``
        raises unless its ground vector is strictly positive in the gauge),
        and so must the lowered vector's strict positivity."""
        step = self._step(h, structure)
        if step is None:
            return None
        h_top, top_structure, (_, e_top, degeneracy, _, v0) = self._tops[self._polarized_m(h)]
        cert = pf_certificate(h_top, v0, degeneracy, top_structure, float(e_top))
        if h.m == h_top.m:
            return cert
        min_entry = float(np.min(_in_gauge(h, step[1])))
        if not min_entry > STRICT_POSITIVITY_TOL:
            raise InconsistencyError(f"the lowered polarized ground vector of sector M = {h.m} "
                                     f"has {_min_entry(min_entry)}")
        return PositivityCertificate(
            offdiag_sign_ok=True, irreducible=True, ground_unique=True,
            ground_strictly_positive=True, min_entry=min_entry, basis_tag=_basis_tag(h),
            ground_energy=step[0])

    def report(self, h) -> SpectralReport | None:
        """``ed``'s report of sector ``h`` where the theorem saves a solve;
        None where the sector takes ``ground_report``.

        Only a form that states a gauge takes this route, and only where
        the theorem replaces the first solve of the Lanczos route that the
        sign structure does not flag (see ``spectral._lowest_levels``):
        polarized sector P's report comes from its one solve, the one the
        theorem lowers, and a sector whose matrix goes to Lanczos gets the
        lowered pair as the start of ``spectral.lowered_report``.  The
        lowered vector must have no entry below -STRICT_POSITIVITY_TOL in
        the gauge; strict positivity is not asked of it, as at high
        cutoffs the entries with many bosons lie below float resolution
        (``lowered_report``'s deflated solve rules out a lower or second
        ground level instead).
        """
        polarized = h.m == self._polarized_m(h)
        if h.gauge is None or not (polarized or uses_lanczos(as_matrix(h))):
            return None
        step = self._step(h)
        if step is None:
            return None
        if polarized:
            return cluster_report(h, *step[:4])
        e_top, w, previous = step
        min_entry = float(np.min(_in_gauge(h, w)))
        if not min_entry >= -STRICT_POSITIVITY_TOL:
            raise InconsistencyError(f"the lowered polarized ground vector of sector M = {h.m} "
                                     f"has min entry {min_entry:.3e} in its gauge")
        return lowered_report(h, e_top, w, previous)
