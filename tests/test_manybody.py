import importlib
import pkgutil
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

import nagaoka
from nagaoka.corpus import complete4, corpus_models, pair2, triangle3
from nagaoka.errors import DimensionBudgetError
from nagaoka.manybody import (
    DOWN,
    UP,
    BosonBasis,
    SparseHermitian,
    _csr,
    _lowering,
    _mode_product,
    _mode_sum,
    _number,
    boson_basis,
    build_gutzwiller,
    fock_lowering,
    full_fock_basis,
    sector_embedding,
    sector_ladder,
    sector_lowering_fock,
)
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.sector import enumerate_sector, sector_magnetizations
from occupation_oracle import build_fermion_op, spin_ops
from spin_oracle import sector_spin_squared


def test_car_anticommutator_is_identity():
    # the oracle's c and c*, whose products the Fock-space tests compare against
    for (x, sx), (y, sy) in [((0, UP), (0, UP)), ((1, DOWN), (1, DOWN)),
                             ((0, UP), (1, UP)), ((2, UP), (2, DOWN))]:
        create_y = build_fermion_op(3, 2, "create", y, sy)
        annihilate_x_hi = build_fermion_op(3, 3, "annihilate", x, sx)
        annihilate_x = build_fermion_op(3, 2, "annihilate", x, sx)
        create_y_lo = build_fermion_op(3, 1, "create", y, sy)
        anti = (annihilate_x_hi @ create_y + create_y_lo @ annihilate_x).toarray()
        expected = np.eye(full_fock_basis(3, 2).dimension) if (x, sx) == (y, sy) else 0.0
        assert np.allclose(anti, expected)


def test_number_operator_diagonal_and_pauli_exclusion():
    n = build_fermion_op(3, 2, "number", 1, UP).toarray()
    assert np.allclose(n, np.diag(np.diag(n)))
    assert set(np.round(np.diag(n), 12)) <= {0.0, 1.0}
    ann = build_fermion_op(3, 2, "annihilate", 1, UP)
    ann_again = build_fermion_op(3, 1, "annihilate", 1, UP)
    assert (ann_again @ ann).nnz == 0       # c c = 0


def test_gutzwiller_projection():
    for sites in (2, 3, 4):
        basis = full_fock_basis(sites, sites - 1)
        p = build_gutzwiller(basis).matrix.toarray()
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)
        assert int(round(np.trace(p))) == sites * 2 ** (sites - 1)
    assert np.allclose(build_gutzwiller(full_fock_basis(2, 1)).matrix.toarray(), np.eye(4))


def test_spin_algebra():
    # the production S- with the oracle's S3 and S^2
    ops = spin_ops(3, 2)
    sm = fock_lowering(full_fock_basis(3, 2)).toarray()
    s3, s2 = ops["S3"].toarray(), ops["Stot2"].toarray()
    assert np.allclose(sm.T @ sm - sm @ sm.T, 2.0 * s3, atol=1e-12)
    assert np.allclose(s2 @ s3 - s3 @ s2, 0.0, atol=1e-12)
    assert np.allclose(s2 @ sm - sm @ s2, 0.0, atol=1e-12)


def test_polarized_state_has_maximal_spin():
    sites = 3
    basis = full_fock_basis(sites, sites - 1)
    s2 = spin_ops(sites, sites - 1)["Stot2"]
    word = 0b110        # both electrons up, hole at site 0
    vec = np.zeros(basis.dimension)
    vec[basis.rank(word)] = 1.0
    s = (sites - 1) / 2.0
    assert np.allclose(s2 @ vec, s * (s + 1) * vec)


def test_projection_commutes_with_spin_ops():
    basis = full_fock_basis(3, 2)
    p = build_gutzwiller(basis).matrix
    ops = dict(spin_ops(3, 2), Sminus=fock_lowering(basis))
    for name, op in ops.items():
        comm = (p @ op - op @ p).toarray()
        assert np.max(np.abs(comm)) <= 1e-12, name


def test_boson_ccr_below_cutoff_and_ceiling():
    levels = (4, 4)                                  # two modes, cutoff 3
    b = _csr([_mode_sum({0: _lowering(3)}, boson_basis(2, 3))], 16)
    bdag = b.T
    comm = (b @ bdag - bdag @ b).toarray()
    below = np.nonzero(np.unravel_index(np.arange(16), levels)[0] < 3)[0]
    assert np.allclose(comm[np.ix_(below, below)], np.eye(len(below)))
    vacuum = np.zeros(16)
    vacuum[np.ravel_multi_index((0, 0), levels)] = 1.0
    assert np.allclose(b @ vacuum, 0.0)
    top = np.zeros(16)
    top[np.ravel_multi_index((3, 0), levels)] = 1.0
    assert np.allclose(bdag @ top, 0.0)    # raising annihilates the ceiling


def test_boson_number_total():
    nb = _csr([_mode_sum(dict.fromkeys(range(2), _number(2)), boson_basis(2, 2))], 9).toarray()
    assert np.allclose(np.diag(nb), np.indices((3, 3)).sum(axis=0).ravel())
    assert np.count_nonzero(nb - np.diag(np.diag(nb))) == 0


def test_mode_product_mixed_product_identity():
    assert np.array_equal(_csr([_mode_product({}, boson_basis(2, 2))], 9).toarray(), np.eye(9))
    rng = np.random.default_rng(11)
    a, b, c, d, f = (rng.standard_normal((3, 3)) for _ in range(5))
    bosons = boson_basis(3, 2)

    def product(factors):
        return _csr([_mode_product(factors, bosons)], bosons.dimension).toarray()

    assert np.allclose(product({0: a, 1: b}) @ product({0: c, 2: f}), np.kron(np.kron(a @ c, b), f))
    assert np.array_equal(product({1: d}), np.kron(np.kron(np.eye(3), d), np.eye(3)))


def test_mode_product_budget_counts_the_entries_it_builds(monkeypatch):
    """The count held to the entry budget is the length of the arrays that
    follow: random factors on random mode subsets, with exact zeros and
    identity modes."""
    import nagaoka.manybody as manybody

    counts, real = [], manybody.guard_entries

    def guard(count, what):
        counts.append(count)
        real(count, what)

    monkeypatch.setattr(manybody, "guard_entries", guard)
    rng = np.random.default_rng(11)
    for _ in range(200):
        modes, cutoff = int(rng.integers(0, 5)), int(rng.integers(0, 4))
        factors = {}
        for z in rng.permutation(modes)[:rng.integers(0, modes + 1)]:
            f = rng.standard_normal((cutoff + 1, cutoff + 1))
            f[rng.random(f.shape) < 0.4] = 0.0
            factors[int(z)] = f
        rows, cols, vals = _mode_product(factors, BosonBasis(modes, cutoff))
        assert counts[-1] == len(rows) == len(cols) == len(vals)


def test_mode_product_refuses_63_modes_at_cutoff_300_in_one_short_line():
    # 301^63 entries: counted exactly as a Python int, reported by its bound
    with pytest.raises(DimensionBudgetError) as info:
        _mode_product({}, BosonBasis(63, 300))
    message = str(info.value)
    assert "\n" not in message and len(message) < 200
    assert f"at least 2^{(301**63).bit_length() - 1} stored entries" in message
    assert "NAGAOKA_DIM_BUDGET" not in message


def test_boson_basis_budget_guard(monkeypatch):
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", "8")
    assert boson_basis(3, 1).dimension == 8
    with pytest.raises(DimensionBudgetError):
        boson_basis(2, 3)


def test_sparse_hermitian_flag_enforced():
    with pytest.raises(ValueError):
        SparseHermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="must be square"):
        SparseHermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("matrix, defect", [
    (sp.csr_matrix(([1.0, 1.0, 0.5], ([0, 1, 2], [1, 0, 0])), shape=(3, 3)), 0.5),
    (np.array([[1.0, 2.0], [2.0 + 1e-9, 0.0]]), 1e-9),
    (np.array([[0.0, 1j], [1j, 0.0]]), 2.0),
], ids=["structurally-asymmetric", "numerically-asymmetric", "complex-symmetric"])
def test_non_hermitian_input_is_rejected_with_its_defect(matrix, defect):
    with pytest.raises(ValueError, match=r"^matrix flagged hermitian but \|\|A - A\*\|\| = ") as exc:
        SparseHermitian(matrix)
    assert float(str(exc.value).rsplit("= ", 1)[1]) == pytest.approx(defect, rel=1e-3)


def test_nan_defect_fails_the_hermiticity_check():
    # symmetric pattern, NaN data: the defect is NaN, never within the tolerance
    with pytest.raises(ValueError, match=r"\|\|A - A\*\|\| = nan"):
        SparseHermitian(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_hermiticity_check_reads_unsorted_duplicate_entries():
    # rows stored out of order, one entry split in two, and an unmirrored
    # entry below the tolerance: accepted, as by the full difference A - A*
    mat = sp.csr_matrix(([1.5 + 2j, 1.0, 1.5 - 6j, -3j, 1.0, 3j, 3.0 + 4j],
                         [2, 1, 2, 2, 0, 1, 0], [0, 3, 5, 7]), shape=(3, 3))
    assert not mat.has_canonical_format
    def unmirrored(value):
        return sp.csr_matrix(([value], ([2], [1])), shape=(3, 3))

    SparseHermitian(mat)
    SparseHermitian(mat + unmirrored(1e-15))
    with pytest.raises(ValueError):
        SparseHermitian(mat + unmirrored(1e-9))


def test_no_explicit_zeros_stored():
    mat = sp.lil_matrix((2, 2))
    mat[0, 0] = 0.0       # force an explicit zero
    mat[0, 1] = 1.0
    mat[1, 0] = 1.0
    assert SparseHermitian(mat).nnz == 2


def test_sector_embedding_is_injective_signed_basis():
    model = complete4()
    for m in sector_magnetizations(4):
        basis, fock, rows, signs = sector_embedding(model, m)
        assert len(set(rows.tolist())) == basis.dimension
        assert set(signs.tolist()) <= {-1.0, 1.0}
        n_up = basis.n_up
        assert basis.dimension == 4 * comb(3, n_up)


def test_sector_spin_squared_matches_full_space_oracle():
    model = triangle3()
    fock = full_fock_basis(3, 2)
    s2_full = spin_ops(fock.sites, fock.n_electrons)["Stot2"]
    for m in sector_magnetizations(3):
        basis, _, rows, signs = sector_embedding(model, m)
        restricted = (sp.diags(signs) @ s2_full.tocsr()[np.ix_(rows, rows)] @ sp.diags(signs)).toarray()
        assert np.allclose(sector_spin_squared(model, m).toarray(), restricted, atol=1e-12)


def test_sector_lowering_column_counts():
    model = complete4()
    for m in sector_magnetizations(4)[1:]:
        basis_hi, basis_lo = enumerate_sector(model, m), enumerate_sector(model, m - 1)
        dense = sector_ladder(basis_hi, basis_lo).toarray()
        assert dense.shape == (basis_lo.dimension, basis_hi.dimension)
        assert np.allclose(dense.sum(axis=0), basis_hi.n_up)


def test_pair_lowering_matrix_exact():
    half = Fraction(1, 2)
    low = sector_ladder(enumerate_sector(pair2(), half), enumerate_sector(pair2(), -half))
    assert np.array_equal(low.toarray(), np.eye(2))


def test_sector_ladder_refuses_sectors_that_are_not_adjacent():
    model = complete4()
    top, low = enumerate_sector(model, Fraction(3, 2)), enumerate_sector(model, Fraction(-1, 2))
    for source, target in [(top, low), (low, top), (top, top),
                           (enumerate_sector(pair2(), Fraction(1, 2)), low)]:
        with pytest.raises(ValueError, match="no ladder map"):
            sector_ladder(source, target)


def _fock_spin_squared(model, m):
    """S^2 on a sector by the second route: the same Casimir formula with
    the lowering maps taken from the fermionic S-."""
    basis = enumerate_sector(model, m)
    max_m = (model.sites - 1) / 2
    s2 = float(basis.m) ** 2 * sp.identity(basis.dimension, format="csr")
    if float(basis.m) > -max_m:
        low, _, _ = sector_lowering_fock(model, basis.m)
        s2 = s2 + 0.5 * (low.conjugate().T @ low)
    if float(basis.m) < max_m:
        low_above, _, _ = sector_lowering_fock(model, basis.m + 1)
        s2 = s2 + 0.5 * (low_above @ low_above.conjugate().T)
    return SparseHermitian(s2.tocsr()).matrix


def _spin_identity_models():
    models = dict(corpus_models())
    models["complete6"] = LatticeModel(6, generate_lattice("complete", 6, 1.0))
    models["triangular2x4"] = LatticeModel(8, generate_lattice("triangular_patch", (2, 4), 1.0))
    return models


@pytest.mark.parametrize("name", sorted(_spin_identity_models()))
def test_direct_spin_squared_is_array_identical_to_fock_route(name):
    model = _spin_identity_models()[name]
    for m in sector_magnetizations(model.sites):
        direct = sector_spin_squared(model, m).matrix
        fock = _fock_spin_squared(model, m)
        assert direct.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(direct, attr), getattr(fock, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{name} M={m}: {attr}"


def test_direct_lowering_equals_fock_lowering_on_corpus():
    # the direct map on the Fock route's own bases; S+ is the same map transposed
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites)[1:]:
            fock, hi, lo = sector_lowering_fock(model, m)
            direct = sector_ladder(hi, lo)
            assert direct.has_canonical_format
            assert np.array_equal(direct.toarray(), fock.toarray()), f"{name} M={m}"
            assert np.array_equal(sector_ladder(lo, hi).toarray(), fock.T.toarray())


def test_spin_resolution_never_builds_the_fock_space(monkeypatch):
    def forbidden(*args):
        raise AssertionError("production spin path touched the Fock space")

    monkeypatch.setattr("nagaoka.manybody.full_fock_basis", forbidden)
    monkeypatch.setattr("nagaoka.manybody.fock_lowering", forbidden)
    from nagaoka.acceptance import holstein_model
    from nagaoka.hamiltonian import assemble_holstein_sector, assemble_nagaoka_sector
    from nagaoka.spectral import ground_report

    for m in sector_magnetizations(4):
        assert ground_report(assemble_nagaoka_sector(complete4(), m)).resolved_s == Fraction(3, 2)
    rep = ground_report(assemble_holstein_sector(holstein_model(complete4(), 0.5), Fraction(1, 2)))
    assert rep.resolved_s == Fraction(3, 2)


def test_fock_basis_budget_checked_before_walking_words():
    # C(28, 13) ~ 3.7e7 words over 2^28 candidates: must refuse at once
    with pytest.raises(DimensionBudgetError):
        full_fock_basis(14, 13)


def test_sector_budget_checked_before_enumerating(monkeypatch):
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", "11")
    assert enumerate_sector(complete4(), Fraction(3, 2)).dimension == 4
    with pytest.raises(DimensionBudgetError):
        enumerate_sector(complete4(), Fraction(1, 2))       # dimension 12


def _package_lru_caches() -> dict:
    """Every functools.lru_cache of the nagaoka modules, at module level or
    on a class, by qualified name.  ``__main__`` runs the command line when
    imported and defines nothing."""
    caches = {}
    for info in pkgutil.iter_modules(nagaoka.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"nagaoka.{info.name}")
        for owner in [module, *(c for c in vars(module).values() if isinstance(c, type))]:
            for obj in vars(owner).values():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return caches


def test_basis_caches_are_bounded(monkeypatch):
    caches = _package_lru_caches()
    assert {"nagaoka.sector._built_basis", "nagaoka.manybody._built_fock_basis"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name
    for cache, build, args in [
        (caches["nagaoka.manybody._built_fock_basis"], full_fock_basis,
         [(s, n) for s in range(1, 6) for n in range(2 * s + 1)]),
        (caches["nagaoka.sector._built_basis"], enumerate_sector,
         [(LatticeModel(s, generate_lattice("chain", s, 1.0)), m)
          for s in range(2, 9) for m in sector_magnetizations(s)]),
    ]:
        maxsize = cache.cache_info().maxsize
        assert len(args) > maxsize
        for a in args:
            build(*a)
            assert cache.cache_info().currsize <= maxsize
    # callers share the cached arrays, so none may write to them
    basis = enumerate_sector(complete4(), Fraction(1, 2))
    assert basis is enumerate_sector(complete4(), Fraction(1, 2))
    assert not (basis.holes.flags.writeable or basis.masks.flags.writeable
                or full_fock_basis(3, 2).words.flags.writeable)
    # a cached basis still passes the budget check on every call
    builds = [lambda: enumerate_sector(complete4(), Fraction(1, 2)),
              lambda: full_fock_basis(3, 2), lambda: boson_basis(2, 1)]
    for build in builds:
        build()
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", "0")
    for build in builds:
        with pytest.raises(DimensionBudgetError):
            build()
