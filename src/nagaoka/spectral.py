"""Eigensolvers, spectral reports and the large-U resolvent experiment.

Tolerances used throughout, stated once:

* eigenpair residual:   ||Hv - ev|| <= 1e-10 (1 + |e|)
* degeneracy cluster:   1e-8 (1 + |E0|)
* spin rounding:        |S(S+1) - <S^2>| <= 1e-6 after rounding S

A sector matrix is split into the connected components of the graph of |H|
(stored zeros are no edges) and solved block by block at every dimension:
a single Lanczos start vector cannot resolve exact degeneracies between
decoupled blocks, and a matrix of many small blocks (decoupled boson
modes, hole-move orbits) costs a sum of small solves instead of one large
one.  The blocks travel as one layout from ``sign_structure`` on: the
stable argsort of the component labels and the block sizes.  Blocks small
enough for the first dense request to solve whole, a lone one included,
are gathered by size and solved by one stacked ``eigh`` per size; their
levels stay stacked arrays, and the ground cluster is read off them and the
larger blocks' levels by array operations, with no Python step per block.
Every eigenpair, stacked, dense or Lanczos, passes one residual check.

One policy picks the solver of each matrix from its dimension, its number
of stored entries and its dtype: Lanczos above dimension 2048, and below
it on blocks of dimension above 512 (400 when complex, where LAPACK costs
about four times more) that store at most dim^2/16 entries; dense LAPACK
otherwise, computing only the requested lowest pairs.  Both take the
matrix's dtype as it is: a real matrix gets real LAPACK and ARPACK's
symmetric driver, a complex one the complex routines.  Lanczos solves the
lowest pair of a block and takes the next level from one more solve, on
the complement of the ground cluster, from a fresh start vector.  A value
found there inside the cluster is an exact copy of the ground level that
the first Krylov run missed: it joins the cluster and the complement is
solved again.  A real block whose stored off-diagonal entries are all
negative, read off in the same pass as the blocks, has a simple ground
level (Perron-Frobenius); Lanczos solves its lowest two pairs at once
instead.  Where Nagaoka's theorem gives a one-block sector's simple ground
pair (``positivity.SectorCertifier``), ``lowered_report`` starts the
deflation from it: one deflated solve gives the gap, and a value inside
the cluster is an inconsistency, not a copy.

Total spin is resolved on the whole degenerate ground cluster V, so a
cluster that mixes spins is reported by its content instead of by one
arbitrary vector.  It is read off the ladder map A out of sector M away
from M = 0 (S+ for M >= 0, S- for M < 0, into a sector never larger than
M's): V*S^2V = |M|(|M| + 1) I + (AV)*(AV), and an end sector needs no map.

Every form is spin-blind, so global spin inversion maps sector M onto
sector -M and a report of M is a report of -M.  The CLI solves sectors
M >= 0 only and reports every requested -M, with or without its +M, from
+M, only after the assembled -M matrix has been checked to be exactly the
inverted M one, an O(nnz) comparison of CSR arrays instead of a second
solve.  ``ground_report`` itself still takes any sector, M < 0 included.

The large-U resolvent comparison is a sweep over U: H(U = 0), the
projector, the default z, the limit resolvent and the hopping part of H_U
do not depend on U and are built once per ``resolvent_gaps`` call; each U
then costs its U n_up n_down diagonal, one dense inverse and one exact
2-norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import AmbiguousSpinError, ConvergenceError, InconsistencyError, guard_entries
from .hamiltonian import SectorHamiltonian, hubbard_full_matrices
from .manybody import SparseHermitian, boson_basis, build_gutzwiller, full_fock_basis, sector_ladder
from .model import LatticeModel
from .sector import enumerate_sector, spin_flip

RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-8
SPIN_TOL = 1e-6
DENSE_CROSSOVER = 2048
# Pairs of the first dense request; a block of at most this dimension is
# solved whole by it
_DENSE_START = 6
# Below the crossover, Lanczos (with its deflated solves) beats a dense solve
# from these dimensions on, keyed by complex dtype, when the matrix stores at
# most dim^2 / _LANCZOS_FILL entries.  Measured on single-threaded LAPACK:
# slowly converging patch sectors break even near 500 real / 400 complex, and
# random sparse blocks of dimension 600 near a fill of 1/16.
_LANCZOS_FLOOR = {False: 512, True: 400}
_LANCZOS_FILL = 16
# ARPACK stops when ||r|| <= tol |theta| and a Ritz value lies within ||r|| of
# an eigenvalue, so a deflated solve's value errs by at most tol |theta|: a
# hundredth of the cluster tolerance unless |theta| > 100 (1 + |E0|)
_GUARD_TOL = CLUSTER_TOL / 100

_EIG_SEED = 20240915
_GUARD_SEED = _EIG_SEED + 1


def as_matrix(h) -> sp.csr_matrix:
    """CSR matrix of a sector Hamiltonian, a ``SparseHermitian``, an array
    or any scipy sparse matrix."""
    if isinstance(h, SectorHamiltonian):
        h = h.op
    if isinstance(h, SparseHermitian):
        return h.matrix
    return sp.csr_matrix(h)


def uses_lanczos(mat: sp.csr_matrix) -> bool:
    """The solver policy: Lanczos rather than a dense solve for ``mat``,
    decided from its dimension, stored entries and dtype."""
    dim = mat.shape[0]
    if dim > DENSE_CROSSOVER:
        return True
    return dim > _LANCZOS_FLOOR[np.iscomplexobj(mat.data)] and _LANCZOS_FILL * mat.nnz <= dim * dim


def _lanczos(op, count: int, tol: float = 0.0, seed: int = _EIG_SEED):
    """Lowest ``count`` pairs of a Hermitian matrix or operator by ARPACK,
    ascending, from a seeded start vector so reruns give identical output."""
    v0 = np.random.default_rng(seed).standard_normal(op.shape[0])
    if np.issubdtype(op.dtype, np.complexfloating):
        v0 = v0.astype(complex)
    try:
        vals, vecs = spla.eigsh(op, k=count, which="SA", v0=v0, tol=tol)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"Lanczos did not converge: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def check_residuals(hv, vals, vecs):
    """Raise ConvergenceError unless ||H v - e v|| <= RESIDUAL_TOL (1 + |e|)
    for every pair, given H V: the pairs run along the last axis of ``vals``
    and ``vecs``, and a NaN residual fails."""
    residual = np.linalg.norm(hv - vecs * vals[..., None, :], axis=-2)
    allowed = RESIDUAL_TOL * (1.0 + np.abs(vals))
    bad = np.argwhere(~(residual <= allowed))
    if bad.size:
        at = tuple(bad[0])
        raise ConvergenceError(
            f"eigenpair {at[-1]} residual {residual[at]:.3e} exceeds {allowed[at]:.3e}")


def eig_lowest(h, count: int):
    """Lowest ``count`` eigenpairs, ascending, with verified residuals.

    Dense solve when the policy says so (only the requested pairs unless
    nearly all are asked for), Lanczos otherwise with a deterministic start
    vector so repeated runs give identical output.
    """
    mat = as_matrix(h)
    dim = mat.shape[0]
    if not 1 <= count <= dim:
        raise ValueError(f"requested {count} eigenpairs of a {dim}-dim matrix")
    if count >= dim - 1:
        vals, vecs = np.linalg.eigh(mat.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
    elif not uses_lanczos(mat):
        vals, vecs = sla.eigh(mat.toarray(), subset_by_index=[0, count - 1])
    else:
        vals, vecs = _lanczos(mat, count)
    check_residuals(mat @ vecs, vals, vecs)
    return vals, vecs


@dataclass(frozen=True)
class SpectralReport:
    m: Fraction
    ground_energy: float
    degeneracy: int
    gap: float
    stot2_expectation: float
    resolved_s: Fraction
    dimension: int
    sector_dimension: int
    boson_dimension: int | None = None
    cutoff: int | None = None


def resolve_total_spin(stot2_expectation: float) -> Fraction:
    """Half-integer S with S(S+1) closest to the expectation; raises when
    the rounding residual exceeds the spin tolerance."""
    s_raw = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * max(stot2_expectation, 0.0)))
    s = Fraction(round(2.0 * s_raw), 2)
    residual = abs(float(s * (s + 1)) - stot2_expectation)
    if residual > SPIN_TOL:
        raise AmbiguousSpinError(
            f"<S^2> = {stot2_expectation} is {residual:.3e} away from S(S+1) with "
            f"S = {s}; truncation too coarse or degenerate states are mixing")
    return s


def _deflated(mat: sp.csr_matrix, vecs: np.ndarray, sigma: float) -> spla.LinearOperator:
    """(1 - P) H (1 - P) + sigma P with P the projector on the orthonormal
    columns ``vecs``.  The (n, k) by (k,) products go through
    ``ndarray.dot``, which calls BLAS where ``@`` loops for a thin ``vecs``."""
    adjoint = vecs.conj().T

    def matvec(x):
        x = x.ravel()
        inside = vecs.dot(adjoint.dot(x))
        y = mat @ (x - inside)
        return y - vecs.dot(adjoint.dot(y)) + sigma * inside

    return spla.LinearOperator(mat.shape, matvec=matvec, dtype=mat.dtype)


def _lowest_levels(mat: sp.csr_matrix, pf: bool, start=None):
    """Lowest levels of the connected block ``mat``: every pair within the
    cluster tolerance of the lowest value, then the first value above it,
    which carries no vector when Lanczos found it; or every level.

    A dense solve doubles its count until a value lies above the cluster.
    Lanczos solves the lowest pair (two when ``pf`` flags a block signed for
    Perron-Frobenius, whose ground level is simple), then the lowest level of
    (1 - P) H (1 - P) + sigma P, with P the projector on the cluster vectors
    and sigma a row-sum bound above the spectrum: the lowest level of H
    outside the cluster.  Each cluster size takes its own start vector, as
    the previous start's component along a missed copy is the copy already
    found.  A value inside the cluster is such a copy; it is solved again to
    full accuracy and joins the cluster.

    ``start``, the values (1,) and vectors (dim, 1) of a ground pair known
    to be simple, replaces the first solve: one deflated solve then gives
    the next level, and a value inside the cluster raises
    InconsistencyError, as the pair cannot be simple then.
    """
    dim = mat.shape[0]
    if start is None and not uses_lanczos(mat):
        k = min(dim, _DENSE_START)
        while True:
            vals, vecs = eig_lowest(mat, k)
            if k == dim or np.any(vals - vals[0] > CLUSTER_TOL * (1.0 + abs(vals[0]))):
                return vals, vecs
            k = min(dim, 2 * k)
    vals, vecs = eig_lowest(mat, 2 if pf else 1) if start is None else start
    base = vals[0]
    tol = CLUSTER_TOL * (1.0 + abs(base))
    if np.any(vals - base > tol):
        return vals, vecs
    sigma = float(abs(mat).sum(axis=1).max())
    while vals.size < dim - 1:
        op = _deflated(mat, vecs, sigma)
        seed = _GUARD_SEED + vals.size
        outside = _lanczos(op, 1, tol=_GUARD_TOL, seed=seed)[0][0]
        if outside - base > tol:
            order = np.argsort(vals)
            return np.append(vals[order], outside), vecs[:, order]
        if start is not None:
            raise InconsistencyError(
                f"a level at {outside!r} lies within the cluster tolerance of the ground level "
                f"{base!r} that Nagaoka's theorem makes simple")
        copy_vals, copy_vecs = _lanczos(op, 1, seed=seed)
        check_residuals(mat @ copy_vecs, copy_vals, copy_vecs)
        vals, vecs = np.append(vals, copy_vals), np.hstack([vecs, copy_vecs])
    return eig_lowest(mat, dim)


def sign_structure(mat: sp.csr_matrix, gauge: np.ndarray | None = None):
    """The blocks of ``mat`` and the sign of their off-diagonal entries: the
    two facts a Perron-Frobenius argument reads off a matrix.

    Blocks are the connected components of the graph of |H| without its
    stored zeros (|H|, as the component search casts complex weights to
    real, which would drop a purely imaginary coupling), laid out as
    ``order``, the stable argsort of the component labels, and ``sizes``:
    block j is ``order[ends[j] - sizes[j]:ends[j]]``, ascending, with
    ``ends`` the cumulative sizes, and the blocks are ordered by their
    smallest index.  Per block come the largest real part and the largest
    |imaginary part| of its stored off-diagonal entries, -inf and 0 when it
    has none; read in the +-1 ``gauge`` s when given, as s_i s_j H_ij, in
    the same pass."""
    graph = abs(mat)
    if not graph.data.all():
        graph.eliminate_zeros()
    n_comp, labels = connected_components(graph, directed=False)
    rows = np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype), np.diff(mat.indptr))
    off = rows != mat.indices
    data = mat.data if gauge is None else mat.data * (gauge[rows] * gauge[mat.indices])

    def largest(data, empty):
        if n_comp <= 1:         # one pass over the whole matrix
            return np.array([np.max(data, where=off, initial=empty)])
        out = np.full(n_comp, empty)
        np.maximum.at(out, labels[rows[off]], data[off])
        return out

    re_max = largest(data.real, -np.inf)
    im_max = (largest(np.abs(data.imag), 0.0) if np.iscomplexobj(data)
              else np.zeros(re_max.size))
    return np.argsort(labels, kind="stable"), np.bincount(labels), re_max, im_max


def _stacked_levels(mat: sp.csr_matrix, order: np.ndarray, sizes: np.ndarray) -> list:
    """Every eigenpair of each block of dimension at most ``_DENSE_START``
    among the connected components of ``mat``, laid out as ``order`` and
    ``sizes`` (see ``sign_structure``), as one group per block size s: the
    positions of its B blocks, their index sets as the rows of a (B, s)
    array, and their values (B, s) and vectors (B, s, s).  The first dense
    request solves such a block whole; here the blocks of one size are
    scattered straight from the COO entries of ``mat`` into one stack and
    solved by one batched ``eigh``, whose residuals are checked as
    ``eig_lowest`` checks its own."""
    if not np.any(sizes <= _DENSE_START):
        return []
    owner = np.empty(mat.shape[0], dtype=np.int64)
    owner[order] = np.repeat(np.arange(sizes.size), sizes)
    local = np.empty(mat.shape[0], dtype=np.int64)
    local[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    coo = mat.tocoo()
    entry_size = sizes[owner[coo.row]]
    groups = []
    for size in np.unique(sizes[sizes <= _DENSE_START]):
        members = np.nonzero(sizes == size)[0]
        slot = np.empty(sizes.size, dtype=np.int64)
        slot[members] = np.arange(members.size)
        on = entry_size == size
        row, col = coo.row[on], coo.col[on]
        stack = np.zeros((members.size, size, size), dtype=mat.dtype)
        np.add.at(stack, (slot[owner[row]], local[row], local[col]), coo.data[on])
        vals, vecs = np.linalg.eigh(stack)
        check_residuals(stack @ vecs, vals, vecs)
        groups.append((members, order[sizes[owner[order]] == size].reshape(-1, size), vals, vecs))
    return groups


def _block_levels(mat: sp.csr_matrix) -> list:
    """Low spectrum of ``mat`` solved block by block, as groups of blocks,
    each ``(positions, index rows, values, vectors)`` shaped (B,), (B, s),
    (B, L) and (B, s, C).

    The blocks of ``_stacked_levels`` come in its groups; a larger block is
    solved on its own by ``_lowest_levels`` and makes a group of one, whose
    last value carries no vector when Lanczos found it.  Every block holds
    all of its levels up to the first one above the global ground cluster,
    so degeneracy and gap come out as from one exact solve: a block returns
    every level, or a value v with v - b > CLUSTER_TOL (1 + |b|), b the
    lowest value of the solve that measured its cluster.  The global ground
    energy E0 is at most b, and |E0| <= |b| + (b - E0), so
    v - E0 > CLUSTER_TOL (1 + |E0|): v is above the global cluster too, and
    no block needs solving again.
    """
    order, sizes, re_max, _ = sign_structure(mat)
    pf = (re_max < 0) & (not np.iscomplexobj(mat.data))
    groups = _stacked_levels(mat, order, sizes)
    large = np.nonzero(sizes > _DENSE_START)[0]
    if large.size:
        permuted = mat if sizes.size == 1 else mat[order][:, order]
        ends = np.cumsum(sizes)
        for j in large.tolist():
            span = slice(ends[j] - sizes[j], ends[j])
            vals, vecs = _lowest_levels(permuted[span, span], pf[j])
            groups.append((np.array([j]), order[span][None], vals[None], vecs[None]))
    return groups


def _spin_ladder(h: SectorHamiltonian) -> sp.spmatrix | None:
    """The ladder map out of ``h.basis`` away from M = 0: S+ into M + 1
    when M >= 0, S- into M - 1 when M < 0; None at an end sector."""
    if 2 * abs(h.m) == h.model.sites - 1:
        return None
    return sector_ladder(h.basis, enumerate_sector(h.model, h.m + (1 if h.m >= 0 else -1)))


def _cluster_spin(v: np.ndarray, h: SectorHamiltonian):
    """<S^2> and S of the ground cluster ``v`` of ``h``, from the
    eigenvalues of V*S^2V; raises when the cluster holds more than one total
    spin.  The ladder map (see ``_spin_ladder``) acts on the electron index
    of V, reshaped to (sector dimension, boson dimension * cluster size)."""
    n, m = v.shape[1], abs(float(h.m))
    s2 = m * (m + 1) * np.eye(n)
    ladder = _spin_ladder(h)
    if ladder is not None:
        av = (ladder @ v.reshape(h.basis.dimension, -1)).reshape(-1, n)
        s2 = s2 + av.conj().T @ av
    s2_levels = np.linalg.eigvalsh(s2)
    content = sorted({resolve_total_spin(float(x)) for x in s2_levels})
    if len(content) > 1:
        raise AmbiguousSpinError(
            f"ground cluster of degeneracy {n} holds S = {', '.join(map(str, content))}; "
            f"no single total spin to report")
    return float(np.mean(s2_levels)), content[0]


def ground_cluster(mat: sp.csr_matrix):
    """The ground cluster of ``mat`` from its block levels (see
    ``_block_levels``): every cluster vector of every block embedded in the
    whole space as one column, ordered by block position and then level,
    the ground energy, the degeneracy and gap, and the ground vector of the
    first block, in block order, whose lowest value is the least."""
    groups = _block_levels(mat)
    lows = np.empty(sum(members.size for members, _, _, _ in groups))
    for members, _, vals, _ in groups:
        lows[members] = vals[:, 0]
    j = np.argmin(lows)
    e0 = lows[j]
    tol = CLUSTER_TOL * (1.0 + abs(e0))
    count = np.empty(lows.size, dtype=np.int64)
    for members, _, vals, _ in groups:
        count[members] = np.count_nonzero(vals - e0 <= tol, axis=1)
    first = np.cumsum(count) - count
    cluster = np.zeros((mat.shape[0], count.sum()), np.result_type(*[group[3] for group in groups]))
    for members, rows, vals, vecs in groups:
        b, level = np.nonzero(vals - e0 <= tol)
        cluster[rows[b], (first[members[b]] + level)[:, None]] = vecs[b, :, level]
    levels = np.sort(np.concatenate([vals.ravel() for _, _, vals, _ in groups]))
    above = levels[levels - e0 > tol]
    gap = float(above[0] - e0) if above.size else 0.0
    members, rows, _, vecs = next(group for group in groups if j in group[0])
    b = np.searchsorted(members, j)
    v0 = np.zeros(mat.shape[0], dtype=vecs.dtype)
    v0[rows[b]] = vecs[b, :, 0]
    return cluster, e0, cluster.shape[1], gap, v0


def cluster_report(h: SectorHamiltonian, cluster, e0, degeneracy: int,
                   gap: float) -> SpectralReport:
    """The report of sector ``h`` from its ground cluster, energy,
    degeneracy and gap, with the total spin resolved on the cluster."""
    s2_exp, resolved = _cluster_spin(cluster, h)
    return SpectralReport(
        m=h.m, ground_energy=float(e0), degeneracy=degeneracy, gap=gap,
        stot2_expectation=s2_exp, resolved_s=resolved, dimension=h.dimension,
        sector_dimension=h.basis.dimension,
        boson_dimension=None if h.boson is None else h.boson.dimension,
        cutoff=h.cutoff)


def ground_report(h: SectorHamiltonian) -> SpectralReport:
    """Ground-state cluster, gap and resolved total spin of one sector."""
    return cluster_report(h, *ground_cluster(as_matrix(h))[:4])


def lowered_report(h: SectorHamiltonian, e0: float, w: np.ndarray) -> SpectralReport:
    """The report of the one-block sector ``h``, of dimension 3 or more,
    whose simple ground pair (e0, w) Nagaoka's theorem gives (see
    ``positivity.SectorCertifier.report``): ``_lowest_levels`` takes the pair as
    its start, so one deflated solve gives the gap, and a level inside the
    cluster raises InconsistencyError."""
    w = w[:, None]
    vals, _ = _lowest_levels(as_matrix(h), False, start=(np.array([e0]), w))
    return cluster_report(h, w, e0, 1, float(vals[1] - e0))


def _permuted(mat: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """Canonical CSR of the matrix whose entry (i, j) is mat[perm[i], perm[j]]."""
    out = mat[perm][:, perm]
    out.sort_indices()
    return out


def _same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    return a.dtype == b.dtype and all(np.array_equal(getattr(a, name), getattr(b, name))
                                      for name in ("indptr", "indices", "data"))


def verified_spin_flip(h: SectorHamiltonian, h_flip: SectorHamiltonian) -> np.ndarray:
    """Row in the space of ``h_flip`` (sector -M) of each row of ``h``
    (sector M) under global spin inversion, boson states unchanged.

    Raises InconsistencyError unless ``h_flip``, permuted by the inversion,
    equals ``h`` as CSR arrays (dtype, indptr, indices and data), which
    holds exactly for a spin-blind form."""
    if h_flip.m != -h.m or h_flip.dimension != h.dimension:
        raise InconsistencyError(f"sector M = {h_flip.m} ({h_flip.dimension} states) is not "
                                 f"the spin flip of M = {h.m} ({h.dimension} states)")
    rows = spin_flip(h.basis, h_flip.basis)
    nb = 1 if h.boson is None else h.boson.dimension
    perm = (rows[:, None] * nb + np.arange(nb)).ravel()
    if not _same_csr(_permuted(as_matrix(h_flip), perm), as_matrix(h)):
        raise InconsistencyError(f"H of sector M = {h_flip.m} is not the spin flip of "
                                 f"H of M = {h.m}; the form is not spin-blind")
    return perm


def _projector_diagonal(model: LatticeModel) -> np.ndarray:
    """The no-double-occupancy projector diagonal on the full space,
    carrying the phonon factor when present."""
    p_diag = build_gutzwiller(full_fock_basis(model.sites, model.n_electrons)).matrix.diagonal()
    if model.phonon is not None:
        nb = boson_basis(model.sites, model.phonon.per_site_cutoff).dimension
        p_diag = np.repeat(p_diag, nb)
    return p_diag


def _guard_dense_full_space(model: LatticeModel, what: str):
    """Hold the dim^2 entries of the dense full space, bosons included, to
    the entry budget before ``what`` densifies any of it."""
    dim = full_fock_basis(model.sites, model.n_electrons).dimension
    if model.phonon is not None:
        dim *= boson_basis(model.sites, model.phonon.per_site_cutoff).dimension
    guard_entries(dim * dim, f"{what} on the dense {dim}x{dim} full space")


def _limit_resolvent(model: LatticeModel, us, z: complex | None):
    """The pieces of a resolvent sweep that do not depend on U, from one
    U = 0 assembly: z, the lazy full-space matrices H_U at each U of ``us``,
    and the limit resolvent (H_limit - z)^{-1} P as a dense full-space
    matrix.  A z of None becomes 2i (1 + ||projected Hamiltonian||), far
    enough off axis for the comparison to be well conditioned; the norm is
    the largest |eigenvalue| of the Hermitian restriction."""
    _guard_dense_full_space(model, "projected-limit norm" if z is None else "resolvent comparison")
    matrices = hubbard_full_matrices(model, [0.0, *us])
    h0 = next(matrices).matrix
    idx = np.nonzero(_projector_diagonal(model) > 0.5)[0]
    hp = h0.tocsr()[np.ix_(idx, idx)].toarray()
    if z is None:
        z = 2j * (1.0 + float(np.max(np.abs(np.linalg.eigvalsh(hp)), initial=0.0)))
    rp = np.linalg.inv(hp.astype(complex) - z * np.eye(len(idx)))
    r_limit = np.zeros(h0.shape, dtype=complex)
    r_limit[np.ix_(idx, idx)] = rp
    return z, matrices, r_limit


def _resolvent_difference(h_u: sp.spmatrix, r_limit: np.ndarray, z: complex) -> np.ndarray:
    """(H_U - z)^{-1} - (H_limit - z)^{-1} P as a dense full-space matrix."""
    dim = h_u.shape[0]
    return np.linalg.inv(h_u.toarray().astype(complex) - z * np.eye(dim)) - r_limit


def resolvent_gaps(model: LatticeModel, us, z: complex | None = None):
    """z and the distance ||(H_U - z)^{-1} - (H_limit - z)^{-1} P|| on the
    full space at each U of the sequence ``us``, in order.

    The limit Hamiltonian is the projected U = 0 operator, extended by zero
    on the complement of the projector's range; z defaults to 2i (1 +
    ||projected Hamiltonian||).  H(U = 0), the projector, the default z, the
    limit resolvent and the hopping part of H_U are built once per call;
    each U costs its own H_U, one inverse and one norm.  The difference is
    a dense matrix already, so its norm is the exact largest singular value.
    """
    if z is not None and z.imag == 0:
        raise ValueError("z must be off the real axis")
    z, matrices, r_limit = _limit_resolvent(model, us, z)
    return z, [float(np.linalg.norm(_resolvent_difference(h_u.matrix, r_limit, z), 2))
               for h_u in matrices]


@dataclass(frozen=True)
class EnergySplit:
    u: float
    e_h1: float
    c_const: float
    bound_ok: bool


def energy_split_bound(model: LatticeModel, u: float) -> EnergySplit:
    """Lowest energy of the doubly-occupied block and the U-independent
    floor it must respect: E(H1) >= C + U with C the U = 0 value.

    A model whose electron count admits no double occupancy has an empty
    block; its minimum is +inf and the bound holds vacuously.
    """
    h0, h_u = (h.matrix for h in hubbard_full_matrices(model, [0.0, u]))
    idx = np.nonzero(_projector_diagonal(model) < 0.5)[0]
    if idx.size == 0:
        return EnergySplit(u=u, e_h1=np.inf, c_const=np.inf, bound_ok=True)
    block_u = h_u.tocsr()[np.ix_(idx, idx)]
    block_0 = h0.tocsr()[np.ix_(idx, idx)]
    e_h1 = float(eig_lowest(SparseHermitian(block_u), 1)[0][0])
    c_const = float(eig_lowest(SparseHermitian(block_0), 1)[0][0])
    ok = e_h1 >= c_const + u - 1e-9 * (1.0 + abs(e_h1))
    return EnergySplit(u=u, e_h1=e_h1, c_const=c_const, bound_ok=bool(ok))
