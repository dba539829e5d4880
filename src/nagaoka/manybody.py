"""Occupation-number bases and second-quantized operators.

Electron modes are ordered up-block first, then down-block, each by
ascending site: mode(x, up) = x, mode(x, down) = sites + x.  A basis state
is a bit word whose bit m is the occupation of mode m, and the word
corresponds to the product of creation operators applied in ascending mode
order.  Annihilating or creating mode m therefore carries the sign
(-1)^(number of occupied modes below m).

The electron basis is a fixed-N slice of Fock space (N = sites - 1
everywhere), held as the ascending array of its words; every operator on
it is applied to all words at once, and the diagonal ones read the words
through ``FullFockBasis.occupations``.  ``full_fock_basis`` checks its
arguments and the dimension budget on every call and builds the words once
per process, in a bounded cache, read-only as every caller shares them.

Boson bases are truncated per mode and carry no state list, so nothing
caches them: every boson operator is built from dense (cutoff+1)-dimensional
single-mode factors by ``_mode_product`` and ``_mode_sum``, which fix the
mode order and return (rows, cols, vals) index arrays, not matrices; a mode
without a factor is an identity and costs index arithmetic only.  The
raising operator annihilates the top level instead of erroring, so
truncation artifacts surface as cutoff convergence failures rather than
crashes.

Spin resolution on the magnetization sectors never builds the Fock space:
the ladder map between two adjacent sector bases, ``sector_ladder``, comes
from the direct rule (flip one up spin, coefficient +1), and the spectral
layer reads total spin off that one map.  The Fock space is the finite-U
space and the oracle of the sector forms; ``sector_lowering_fock`` is the
fermionic S- restricted to the signed sector vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb, prod

import numpy as np
import scipy.sparse as sp

from .errors import DimensionBudgetError, guard_dimension, guard_entries
from .model import LatticeModel
from .sector import SectorBasis, _combination_masks, enumerate_sector

UP, DOWN = 0, 1


class SparseHermitian:
    """Dimension-labeled sparse Hermitian matrix.

    The constructor verifies A = A* within a 1e-12 relative tolerance and
    rejects the matrix otherwise.  Explicit zeros are never stored.
    Operators that are not Hermitian (ladder operators, S+ and S-) are
    plain CSR matrices.
    """

    __slots__ = ("matrix",)

    HERMITICITY_TOL = 1e-12

    def __init__(self, matrix):
        m = sp.csr_matrix(matrix)
        m.eliminate_zeros()
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"a Hermitian matrix must be square, got {m.shape}")
        worst, scale = self._hermiticity_defect(m)
        if not worst <= self.HERMITICITY_TOL * scale:      # a NaN defect fails too
            raise ValueError(f"matrix flagged hermitian but ||A - A*|| = {worst:.3e}")
        self.matrix = m

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
        return f"SparseHermitian({self.shape[0]}x{self.shape[1]}, nnz={self.nnz})"


def _csr(parts, dim: int) -> sp.csr_matrix:
    """A dim x dim CSR matrix from one COO build of (rows, cols, vals)
    triplets; entries that several triplets place at one position add.  A
    single triplet is used as it is, not copied."""
    parts = list(parts)
    rows, cols, vals = parts[0] if len(parts) == 1 else (np.concatenate(a) for a in zip(*parts))
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


# ---------------------------------------------------------------------------
# electrons
# ---------------------------------------------------------------------------

def _jw_sign(word: int, mode: int) -> int:
    return -1 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1


def _jw_signs(words: np.ndarray, mode: int) -> np.ndarray:
    """``_jw_sign`` of every word at once, as float."""
    below = np.bitwise_count(words & ((1 << mode) - 1)).astype(np.int64)   # uint8 otherwise
    return (1 - 2 * (below & 1)).astype(float)


@dataclass(frozen=True, eq=False)
class FullFockBasis:
    """All bit words over 2*sites modes with a fixed electron count, as an
    ascending int64 array; ``rank`` inverts the order."""

    sites: int
    n_electrons: int
    words: np.ndarray     # int64

    @property
    def modes(self) -> int:
        return 2 * self.sites

    @property
    def dimension(self) -> int:
        return self.words.size

    def mode(self, site: int, spin: int) -> int:
        return site + spin * self.sites

    def rank(self, words) -> np.ndarray:
        """Row of each word; raises ValueError if any word is not in the basis."""
        words = np.asarray(words, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.words, words), self.dimension - 1)
        if not np.array_equal(self.words[pos], words):
            raise ValueError(f"word outside the Fock basis of {self.n_electrons} "
                             f"electrons on {self.sites} sites")
        return pos

    @cached_property
    def occupations(self) -> np.ndarray:
        """occ[i, spin, x] = occupation (0 or 1) of mode (x, spin) in word i."""
        bits = (self.words[:, None] >> np.arange(self.modes)) & 1
        return bits.reshape(self.dimension, 2, self.sites)


def full_fock_basis(sites: int, n_electrons: int) -> FullFockBasis:
    if not 0 <= n_electrons <= 2 * sites:
        raise ValueError(f"cannot place {n_electrons} electrons on {sites} sites")
    guard_dimension(comb(2 * sites, n_electrons),
                    f"Fock basis of {n_electrons} electrons on {sites} sites")
    return _built_fock_basis(sites, n_electrons)


@lru_cache(maxsize=8)
def _built_fock_basis(sites: int, n_electrons: int) -> FullFockBasis:
    """The basis of a checked Fock space, built once per process while it
    stays among the 8 most recent; its words are read-only, as every caller
    shares them."""
    words = _combination_masks(2 * sites, n_electrons)
    words.setflags(write=False)
    return FullFockBasis(sites=sites, n_electrons=n_electrons, words=words)


def _bilinear(basis: FullFockBasis, create_mode: int, annihilate_mode: int):
    """c*_create c_annihilate applied to every word at once: the rows,
    columns and signs of its entries on a fixed-N basis, by column."""
    cols = np.nonzero((basis.words >> annihilate_mode) & 1)[0]
    emptied = basis.words[cols] ^ (1 << annihilate_mode)
    free = ((emptied >> create_mode) & 1) == 0
    cols, emptied = cols[free], emptied[free]
    # the modes below the annihilated one are the same before and after it
    signs = _jw_signs(emptied, annihilate_mode) * _jw_signs(emptied, create_mode)
    return basis.rank(emptied | (1 << create_mode)), cols, signs


def build_gutzwiller(basis: FullFockBasis) -> SparseHermitian:
    """Diagonal projection onto words with no doubly occupied site."""
    occ = basis.occupations
    diag = 1.0 - np.any(occ[:, UP] & occ[:, DOWN], axis=1)
    return SparseHermitian(sp.diags(diag).tocsr())


def fock_lowering(basis: FullFockBasis) -> sp.csr_matrix:
    """The fermionic total-spin lowering operator S- = sum_x c*_(x, down)
    c_(x, up) on a fixed-N basis, as a CSR matrix."""
    return _csr((_bilinear(basis, basis.mode(x, DOWN), basis.mode(x, UP))
                 for x in range(basis.sites)), basis.dimension)


# ---------------------------------------------------------------------------
# bosons
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BosonBasis:
    """Occupations 0..cutoff on each of ``modes`` modes, in lexicographic
    order: mode 0 is the most significant digit, as in ``_mode_product``."""

    modes: int
    cutoff: int

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.modes


#: Boson states are int64 indices and ``_mode_product`` gives each mode an
#: array axis, so a basis holds at most 63 modes, single-level ones too.
MAX_MODES = 63


def boson_basis(modes: int, cutoff: int) -> BosonBasis:
    if modes < 0 or cutoff < 0:
        raise ValueError("modes and cutoff must be >= 0")
    if modes > MAX_MODES:
        raise DimensionBudgetError(
            f"boson basis with {modes} modes; at most {MAX_MODES} are supported")
    guard_dimension((cutoff + 1) ** modes, f"boson basis with {modes} modes")
    return BosonBasis(modes=modes, cutoff=cutoff)


def _lowering(cutoff: int) -> np.ndarray:
    """b on one mode truncated at ``cutoff``: level n goes to n - 1 with
    sqrt(n).  Its adjoint, the raising operator, annihilates the top level."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)


def _number(cutoff: int) -> np.ndarray:
    """b* b on one mode truncated at ``cutoff``."""
    return np.diag(np.arange(cutoff + 1.0))


def _mode_product(factors: dict, bosons: BosonBasis) -> tuple:
    """Kronecker product with the dense factors[z] on mode z and the identity
    on every mode ``factors`` does not name, mode 0 most significant, as
    (rows, cols, vals) over the stored entries of the factors.  A value is
    the product of the named factors' entries taken in mode order; an
    identity mode only repeats indices.  The entry count is budgeted first."""
    levels, modes = bosons.cutoff + 1, bosons.modes
    guard_entries(prod(int(np.count_nonzero(factors[z]) if z in factors else levels)
                       for z in range(modes)),
                  f"a boson operator on {modes} modes at cutoff {bosons.cutoff}")
    rows = cols = np.zeros((), dtype=np.int64)
    for z in range(modes):
        r, c = np.nonzero(factors.get(z, np.eye(levels)))
        rows, cols = rows[..., None] * levels + r, cols[..., None] * levels + c
    named = [f[np.nonzero(f)].reshape((-1,) + (1,) * (modes - z - 1))
             for z, f in sorted(factors.items())]
    vals = reduce(np.multiply, named) if named else np.ones(())
    return rows.ravel(), cols.ravel(), np.broadcast_to(vals, rows.shape).ravel()


def _mode_sum(factors: dict, bosons: BosonBasis) -> tuple:
    """Kronecker sum: the dense factors[z] acting on mode z, summed over the
    modes z that ``factors`` names, as (rows, cols, vals) with no position
    twice and no zero diagonal entry.  The diagonals add up first, as a left
    fold in the order of ``factors``; off-diagonal entries of different
    modes never meet."""
    diag, parts = 0.0, []
    for z, f in factors.items():
        diag = diag + np.diagonal(f).reshape((-1,) + (1,) * (bosons.modes - z - 1))
        parts.append(_mode_product({z: f - np.diag(np.diagonal(f))}, bosons))
    diag = np.broadcast_to(diag, (bosons.cutoff + 1,) * bosons.modes).ravel()
    on = np.nonzero(diag)[0]
    return tuple(np.concatenate(arrays) for arrays in zip((on, on, diag[on]), *parts))


# ---------------------------------------------------------------------------
# sector embedding: hole-spin configurations as signed Fock words
# ---------------------------------------------------------------------------

def config_fock_state(sites: int, hole: int, up_mask: int) -> tuple[int, int]:
    """Signed Fock word of the canonical sector vector for the configuration
    ``(hole, up_mask)``.

    The vector is built by filling every site in ascending order with its
    spin (an up spin standing in at the hole site) and then removing the
    up electron at the hole; the returned sign is the accumulated fermionic
    reordering sign relative to the ascending-mode word.
    """
    filled_up = up_mask | (1 << hole)
    word, sign = 0, 1
    for z in reversed(range(sites)):          # rightmost creation acts first
        mode = z if (filled_up >> z) & 1 else sites + z
        sign *= _jw_sign(word, mode)
        word |= 1 << mode
    sign *= _jw_sign(word, hole)              # annihilate the stand-in up spin
    word ^= 1 << hole
    return word, sign


def sector_embedding(model: LatticeModel, m):
    """Map a sector basis into the fixed-N Fock basis.

    Returns (sector_basis, fock_basis, word_rows, signs): configuration i
    corresponds to ``signs[i]`` times Fock state ``word_rows[i]``.
    """
    basis = enumerate_sector(model, m)
    fock = full_fock_basis(model.sites, model.n_electrons)
    words, signs = zip(*(config_fock_state(model.sites, h, u)
                         for h, u in zip(basis.holes.tolist(), basis.masks.tolist())))
    return basis, fock, fock.rank(words), np.array(signs, dtype=float)


def projected_restriction(full_matrix, rows_a, signs_a, rows_b=None, signs_b=None) -> sp.csr_matrix:
    """Restrict a full-basis matrix to signed sector vectors: S_a A S_b."""
    if rows_b is None:
        rows_b, signs_b = rows_a, signs_a
    sub = sp.csr_matrix(full_matrix)[np.ix_(rows_a, rows_b)]
    return (sp.diags(signs_a) @ sub @ sp.diags(signs_b)).tocsr()


def sector_ladder(source: SectorBasis, target: SectorBasis) -> sp.spmatrix:
    """The spin ladder map from sector ``source`` to the adjacent sector
    ``target`` of the same sites, by the direct rule: S- one step down,
    where every up spin of a configuration flips to down with coefficient
    +1, and its transpose, S+, one step up.

    S- is canonical CSR (sorted indices, no explicit zeros), so products
    built from it have the same CSR arrays as those built from
    ``sector_lowering_fock``; S+ is its CSC transpose.
    """
    if target.sites != source.sites or abs(target.m - source.m) != 1:
        raise ValueError(f"no ladder map from M = {source.m} ({source.sites} sites) "
                         f"to M = {target.m} ({target.sites} sites)")
    if target.m > source.m:
        return sector_ladder(target, source).T
    holes, masks = source.holes, source.masks
    flipped, cols = np.nonzero((masks >> np.arange(source.sites)[:, None]) & 1)
    rows = target.rank(holes[cols], masks[cols] ^ (1 << flipped))
    mat = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                        shape=(target.dimension, source.dimension))
    mat.sort_indices()
    return mat


def sector_lowering_fock(model: LatticeModel, m) -> tuple[sp.csr_matrix, SectorBasis, SectorBasis]:
    """(S-, basis_M, basis_{M-1}) by the second route of ``sector_ladder``:
    the fermionic S- on the full fixed-N Fock basis, restricted to the signed
    sector vectors, so its sign structure reflects the sector convention
    end to end."""
    basis_hi, fock, rows_hi, signs_hi = sector_embedding(model, m)
    m_lo = basis_hi.m - 1
    basis_lo, _, rows_lo, signs_lo = sector_embedding(model, m_lo)
    mat = projected_restriction(fock_lowering(fock), rows_lo, signs_lo, rows_hi, signs_hi)
    return mat, basis_hi, basis_lo

