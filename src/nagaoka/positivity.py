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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InconsistencyError
from .hamiltonian import assemble_qgrid_sector
from .manybody import sector_lowering_fock
from .model import LatticeModel
from .spectral import as_matrix, ground_cluster, sign_structure

STRICT_POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class PositivityCertificate:
    offdiag_sign_ok: bool
    irreducible: bool
    ground_unique: bool
    ground_strictly_positive: bool
    min_entry: float
    basis_tag: str


def preserves_positivity(a, tol: float = 0.0) -> bool:
    """Entrywise nonnegativity in the distinguished basis."""
    data = as_matrix(a).data
    return bool(np.all(data.real >= -tol) and np.all(np.abs(data.imag) <= tol))


def improves_positivity_exp(a, tol: float = 0.0) -> bool:
    """Whether exp(A) is entrywise strictly positive for an entrywise
    nonnegative A: every pair must be linked by some power of A, which is
    strong connectivity of the support digraph (the zeroth power covers the
    diagonal)."""
    mat = as_matrix(a)
    if not preserves_positivity(mat, tol):
        raise ValueError("defined only for positivity-preserving matrices")
    n_comp, _ = connected_components(abs(mat), directed=True, connection="strong")
    return n_comp <= 1


def ergodicity_certificate(h) -> bool:
    """Connectivity of the off-diagonal support graph of -H: at most one
    block.  On a configuration-basis Hamiltonian this is, by construction,
    the same predicate as the hole-move connectivity of the sector."""
    return sign_structure(as_matrix(h))[1].size <= 1


def pf_certificate(h, ground_vector: np.ndarray, degeneracy: int,
                   basis_tag: str = "configuration") -> PositivityCertificate:
    """Certificate tying the sign structure of -H to ground-state uniqueness
    and strict positivity.

    The ground vector's global phase is normalized so its largest-magnitude
    entry is positive; strict positivity then means every entry exceeds the
    threshold.  If the sign structure and irreducibility hold but uniqueness
    or positivity fail, the certificate raises instead of reporting, because
    the implication is a theorem at finite dimension.
    """
    _, sizes, re_max, im_max = sign_structure(as_matrix(h))
    tol = STRICT_POSITIVITY_TOL
    sign_ok = bool(np.all(re_max <= tol) and np.all(im_max <= tol))
    irreducible = sizes.size <= 1

    v = np.asarray(ground_vector).ravel()
    pivot = v[int(np.argmax(np.abs(v)))]
    v = v * np.conj(pivot) / abs(pivot)
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
    statement that the direct rule of ``sector_lowering`` is the fermionic
    S- in the canonical basis."""
    low, basis_hi, _ = sector_lowering_fock(model, m)
    dense = low.toarray()
    near_zero = np.abs(dense) <= 1e-12
    near_one = np.abs(dense - 1.0) <= 1e-12
    if not np.all(near_zero | near_one):
        return False
    col_sums = dense.sum(axis=0)
    return bool(np.all(np.abs(col_sums - basis_hi.n_up) <= 1e-9))


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
