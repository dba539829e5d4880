from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from nagaoka import spectral
from nagaoka.acceptance import holstein_model, radiation_triangle
from nagaoka.corpus import chain3, complete4, pair2, square_diag4, triangle3
from nagaoka.errors import AmbiguousSpinError, ConvergenceError
from nagaoka.hamiltonian import (
    assemble_holstein_sector,
    assemble_hubbard_full,
    assemble_lang_firsov_hole_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
)
from nagaoka.manybody import SparseHermitian
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.sector import connectivity_check, sector_magnetizations
from nagaoka.spectral import (
    eig_lowest,
    energy_split_bound,
    ground_report,
    resolve_total_spin,
    resolvent_gap,
    resolvent_gaps,
)
from norm_oracle import operator_norm


def test_eig_lowest_small_cases():
    vals, vecs = eig_lowest(np.array([[0.0, -1.0], [-1.0, 0.0]]), 2)
    assert np.allclose(vals, [-1.0, 1.0])
    ground = vecs[:, 0] * np.sign(vecs[0, 0])
    assert np.allclose(ground, np.full(2, 1 / np.sqrt(2)))

    diag = np.diag([3.0, -2.0, 7.0, 0.5])
    vals, _ = eig_lowest(diag, 4)
    assert np.allclose(vals, sorted(np.diag(diag)))


def test_eig_lowest_dense_oracle_200():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    a = a + a.conj().T
    vals, _ = eig_lowest(a, 5)
    reference = np.linalg.eigvalsh(a)[:5]
    assert np.max(np.abs(vals - reference)) <= 1e-9


def test_eig_lowest_krylov_path_matches_dense():
    rng = np.random.default_rng(1)
    n = 2500                      # above the dense crossover
    main = rng.standard_normal(n)
    off = rng.standard_normal(n - 1) * 0.5
    mat = sp.diags([main, off, off], offsets=[0, 1, -1]).tocsr()
    vals, vecs = eig_lowest(SparseHermitian(mat), 3)
    dense = np.linalg.eigvalsh(mat.toarray())[:3]
    assert np.max(np.abs(vals - dense)) <= 1e-9
    for i in range(3):
        res = np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i])
        assert res <= 1e-10 * (1 + abs(vals[i]))


def test_eig_lowest_count_validation():
    with pytest.raises(ValueError):
        eig_lowest(np.eye(3), 4)


def test_operator_norm():
    assert np.isclose(operator_norm(np.eye(7)), 1.0)
    assert np.isclose(operator_norm(np.diag([3.0, -4.0])), 4.0)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((50, 50))
    assert abs(operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) <= 1e-7
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_raises_when_iterations_run_out():
    a = np.diag([1.0, 0.99, 0.5])                # slow contraction ratio 0.98
    assert np.isclose(operator_norm(a), 1.0)
    with pytest.raises(ConvergenceError):
        operator_norm(a, max_iter=3)


def test_ground_report_complete4():
    rep = ground_report(assemble_nagaoka_sector(complete4(), Fraction(1, 2)))
    assert rep.resolved_s == Fraction(3, 2)
    assert rep.degeneracy == 1
    assert rep.gap > 0
    assert abs(rep.ground_energy + 3.0) <= 1e-12


def test_polarized_sector_always_maximal_spin():
    for model in (pair2(), triangle3(), complete4()):
        top = sector_magnetizations(model.sites)[-1]
        rep = ground_report(assemble_nagaoka_sector(model, top))
        assert float(rep.resolved_s) == (model.sites - 1) / 2


def test_sector_energies_agree_for_connected_models():
    for model in (triangle3(), complete4(), square_diag4()):
        energies = [ground_report(assemble_nagaoka_sector(model, m)).ground_energy
                    for m in sector_magnetizations(model.sites)]
        assert max(energies) - min(energies) <= 1e-10


def test_report_invariant_under_site_relabeling():
    model = square_diag4()
    rng = np.random.default_rng(4)
    perm = rng.permutation(4)
    relabeled = LatticeModel(4, model.hopping[np.ix_(perm, perm)])
    for m in sector_magnetizations(4):
        a = ground_report(assemble_nagaoka_sector(model, m))
        b = ground_report(assemble_nagaoka_sector(relabeled, m))
        assert abs(a.ground_energy - b.ground_energy) <= 1e-12
        assert a.resolved_s == b.resolved_s
        assert a.degeneracy == b.degeneracy


def test_resolve_total_spin_rejects_ambiguity():
    with pytest.raises(AmbiguousSpinError):
        resolve_total_spin(1.3)
    assert resolve_total_spin(0.75) == Fraction(1, 2)
    assert resolve_total_spin(3.75) == Fraction(3, 2)


def test_resolvent_gap_decreases_and_scales():
    model = complete4()
    us = [1e2, 1e3, 1e4, 1e5]
    z, deltas = resolvent_gaps(model, us)
    assert deltas == [resolvent_gap(model, u, z) for u in us]    # the sweep is the one-U case
    assert resolvent_gap(model, us[0]) == deltas[0]                # with the same default z
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    products = [d * u for d, u in zip(deltas, us)]
    assert max(products) / min(products) <= 1.01       # the 1/U law


def test_resolvent_gap_exact_when_no_double_occupancy():
    assert resolvent_gap(pair2(), 1e6) <= 1e-12


def test_finite_u_ground_energy_converges_to_projected_value():
    """On the open chain the finite-U ground sits below the projected value
    by a superexchange correction that dies off like 1/U."""
    from nagaoka.corpus import chain3
    from nagaoka.hamiltonian import assemble_hubbard_full

    model = chain3()
    limit = min(np.linalg.eigvalsh(assemble_nagaoka_sector(model, m).op.toarray())[0]
                for m in sector_magnetizations(3))
    gaps = {}
    for u in (1e2, 1e3, 1e4):
        e_u = np.linalg.eigvalsh(assemble_hubbard_full(model, u).toarray())[0]
        assert e_u <= limit + 1e-12          # double occupancy only lowers the energy
        gaps[u] = limit - e_u
    assert gaps[1e3] < gaps[1e2] and gaps[1e4] < gaps[1e3]
    products = [u * gap for u, gap in gaps.items()]
    assert max(products) / min(products) <= 1.01


def test_resolvent_gap_rejects_real_z():
    with pytest.raises(ValueError):
        resolvent_gap(pair2(), 10.0, z=1.0 + 0.0j)


def test_energy_split_equality_at_zero_u():
    split = energy_split_bound(complete4(), 0.0)
    assert split.bound_ok
    assert np.isclose(split.e_h1, split.c_const)


def test_energy_split_trivial_complement():
    split = energy_split_bound(pair2(), 123.0)
    assert split.bound_ok
    assert split.e_h1 == np.inf


def _dense_levels(h):
    vals = np.linalg.eigvalsh(h.op.toarray())
    tol = 1e-8 * (1.0 + abs(vals[0]))
    degeneracy = int(np.sum(vals - vals[0] <= tol))
    return vals[0], degeneracy, vals[degeneracy] - vals[0]


def test_lanczos_on_reducible_sector_counts_every_orbit(monkeypatch):
    # ring-8, M = 1/2: five hole-move orbits of 56, each holding one E = -2
    # state; a single Lanczos start vector over the whole sector sees four
    ring8 = LatticeModel(8, generate_lattice("ring", 8, 1.0))
    h = assemble_nagaoka_sector(ring8, Fraction(1, 2))
    assert connectivity_check(ring8, Fraction(1, 2)).orbit_sizes == (56,) * 5
    energy, degeneracy, gap = _dense_levels(h)
    assert degeneracy == 5
    monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: True)
    # the five ground states carry spins 1/2, 3/2 and 7/2, so the default
    # call must refuse; a vanishing ladder map (S^2 = 3/4 everywhere) keeps
    # the check on the levels
    with pytest.raises(AmbiguousSpinError, match=r"S = 1/2, 3/2, 7/2"):
        ground_report(h)
    monkeypatch.setattr("nagaoka.spectral._spin_ladder", lambda h: None)
    rep = ground_report(h)
    assert abs(rep.ground_energy - energy) <= 1e-10
    assert rep.degeneracy == degeneracy
    assert abs(rep.gap - gap) <= 1e-9
    v0 = spectral.ground_cluster(h.op.matrix)[4]
    assert np.linalg.norm(h.op.matrix @ v0 - rep.ground_energy * v0) <= 1e-9


def test_lanczos_orbit_blocks_carry_the_boson_space(monkeypatch):
    # open 3-chain, M = 0 (orbits 3 + 3) with local phonons: 48 states.  The
    # two degenerate ground states carry different spin, so one vector has
    # no sharp S; a vanishing ladder map (S^2 = 0 at M = 0) keeps the check
    # on the levels.
    h = assemble_holstein_sector(holstein_model(chain3(), 0.5, cutoff=1), 0)
    energy, degeneracy, gap = _dense_levels(h)
    monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: True)
    monkeypatch.setattr("nagaoka.spectral._spin_ladder", lambda h: None)
    rep = ground_report(h)
    assert abs(rep.ground_energy - energy) <= 1e-10
    assert rep.degeneracy == degeneracy == 2
    assert abs(rep.gap - gap) <= 1e-9
    v0 = spectral.ground_cluster(h.op.matrix)[4]
    assert np.linalg.norm(h.op.matrix @ v0 - rep.ground_energy * v0) <= 1e-9


@pytest.mark.parametrize("lanczos", [False, True], ids=["dense", "lanczos"])
def test_ring8_counts_every_orbit_without_the_orbit_bfs(monkeypatch, lanczos):
    ring8 = LatticeModel(8, generate_lattice("ring", 8, 1.0))
    h = assemble_nagaoka_sector(ring8, Fraction(1, 2))
    energy, degeneracy, gap = _dense_levels(h)

    def no_bfs(*args, **kwargs):
        raise AssertionError("ground_report must not run the orbit BFS")

    monkeypatch.setattr("nagaoka.sector.connectivity_check", no_bfs)
    monkeypatch.setattr("nagaoka.sector.configuration_graph", no_bfs)
    if lanczos:
        monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: True)
    # a vanishing ladder map makes S^2 = 3/4 everywhere at M = 1/2: one S
    # over the five-fold cluster
    monkeypatch.setattr("nagaoka.spectral._spin_ladder", lambda h: None)
    rep = ground_report(h)
    assert rep.degeneracy == degeneracy == 5
    assert rep.resolved_s == Fraction(1, 2)
    assert abs(rep.stot2_expectation - 0.75) <= 1e-12
    assert abs(rep.ground_energy - energy) <= 1e-10
    assert abs(rep.gap - gap) <= 1e-9


def test_mixed_spin_cluster_names_its_content():
    with pytest.raises(AmbiguousSpinError, match=r"degeneracy 2 holds S = 0, 1;"):
        ground_report(assemble_nagaoka_sector(chain3(), 0))
    ring6 = LatticeModel(6, generate_lattice("ring", 6, 1.0))
    with pytest.raises(AmbiguousSpinError, match=r"S = 1/2, 5/2;"):
        ground_report(assemble_nagaoka_sector(ring6, Fraction(1, 2)))


@pytest.mark.parametrize("m", [Fraction(1), Fraction(0)])
def test_decoupled_radiation_triangle_solves_one_block_per_photon_state(m):
    # kappa = 1 keeps only the two k = 0 modes, whose phases are the
    # identity: the matrix is H_el x I + I x m0 (n1 + n2), 441 blocks
    model = radiation_triangle(1.0, cutoff=20)
    h = assemble_radiation_sector(model, m)
    mat = h.op.matrix
    blocks = _blocks(mat)
    assert len(blocks) == 441
    levels = np.sort(np.concatenate([
        eig_lowest(mat[np.ix_(idx, idx)], idx.size)[0] for idx in blocks]))
    e_el = np.linalg.eigvalsh(assemble_nagaoka_sector(model, m).op.toarray())
    photons = np.add.outer(np.arange(21), np.arange(21)).ravel() * model.radiation.mass
    ladder = np.sort(np.add.outer(e_el, photons).ravel())
    assert np.max(np.abs(levels - ladder)) <= 1e-10
    dense = mat.toarray()
    assert not dense.imag.any()              # identity phases: a real matrix
    assert np.max(np.abs(levels - np.linalg.eigvalsh(dense.real))) <= 1e-10

    rep = ground_report(h)
    _, degeneracy, gap = _dense_levels(assemble_nagaoka_sector(model, m))
    assert abs(rep.ground_energy - ladder[0]) <= 1e-10
    assert rep.degeneracy == degeneracy
    assert abs(rep.gap - min(gap, model.radiation.mass)) <= 1e-10
    assert rep.resolved_s == 1


def test_blocks_are_linked_by_imaginary_couplings():
    # two real 2x2 blocks joined only by +-i: one block, not two
    mat = sp.csr_matrix(np.array([[0.0, -1.0, 0.0, 0.0],
                                  [-1.0, 0.0, 1j, 0.0],
                                  [0.0, -1j, 0.0, -1.0],
                                  [0.0, 0.0, -1.0, 0.0]]))
    order, sizes, _, _ = spectral.sign_structure(mat)
    assert sizes.tolist() == [4] and np.array_equal(order, np.arange(4))
    [(members, rows, vals, _)] = spectral._block_levels(mat)
    assert members.tolist() == [0] and rows.tolist() == [[0, 1, 2, 3]]
    assert abs(vals[0, 0] - np.linalg.eigvalsh(mat.toarray())[0]) <= 1e-12


def _blocks(mat) -> list[np.ndarray]:
    """The index set of each block of ``mat``, cut from the layout of
    ``sign_structure``."""
    order, sizes, _, _ = spectral.sign_structure(mat)
    return np.split(order, np.cumsum(sizes)[:-1])


def _scattered_blocks(sizes, phased: bool, seed: int = 3) -> sp.csr_matrix:
    """Random Hermitian blocks of the given sizes on randomly interleaved
    index sets: a matrix whose connected components are exactly those."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if phased else 0)
        blocks.append(a + a.conj().T + 3 * np.eye(n))       # a full block is connected
    perm = rng.permutation(sum(sizes))
    return sp.csr_matrix(sp.block_diag(blocks).toarray()[np.ix_(perm, perm)])


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
def test_sign_structure_reads_each_block_off_its_stored_entries(phased):
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 6, 3, 1]
    mat = _scattered_blocks(sizes, phased)
    mat.data[mat.data.real > 1.5] *= -1        # still Hermitian; some blocks turn all-negative
    _, block_sizes, re_max, im_max = spectral.sign_structure(mat)
    blocks = _blocks(mat)
    assert sorted(block_sizes.tolist()) == sorted(sizes)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(mat.shape[0]))
    assert all(np.all(np.diff(idx) > 0) for idx in blocks)
    assert [idx[0] for idx in blocks] == sorted(idx[0] for idx in blocks)
    for j, idx in enumerate(blocks):
        sub = mat[idx][:, idx]
        off = sub.toarray()[~np.eye(idx.size, dtype=bool)]
        expect = (off.real.max(initial=-np.inf), np.abs(off.imag).max(initial=0.0))
        assert (re_max[j], im_max[j]) == expect                           # the per-block pass
        one = spectral.sign_structure(sub)
        assert one[1].size == 1 and (one[2][0], one[3][0]) == expect      # the one-block pass
    negative = (re_max < 0) & (np.array([idx.size for idx in blocks]) > 1)
    assert np.any(re_max > 0) and np.any(negative) and np.any(im_max > 0) == phased


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
def test_stacked_small_blocks_equal_their_single_block_solves(phased):
    mat = _scattered_blocks([1, 2, 3, 4, 5, 6, 7, 8, 6, 3, 1], phased)
    groups = spectral._block_levels(mat)
    blocks, re_max = _blocks(mat), spectral.sign_structure(mat)[2]
    pf = (re_max < 0) & (not phased)
    small = 0
    for members, rows, vals, vecs in groups:
        assert rows.shape[0] == members.size
        if rows.shape[1] <= spectral._DENSE_START:        # one stacked group per size
            small += members.size
            assert np.array_equal(members, [j for j, idx in enumerate(blocks)
                                            if idx.size == rows.shape[1]])
        else:                                             # a block solved on its own
            assert members.size == 1
        for j, idx, v, w in zip(members, rows, vals, vecs):
            assert np.array_equal(idx, blocks[j])
            oracle = spectral._lowest_levels(mat[idx][:, idx], pf[j])
            if idx.size <= spectral._DENSE_START:
                assert np.array_equal(v, oracle[0]) and np.array_equal(w, oracle[1])
            else:
                assert v.size == oracle[0].size and np.max(np.abs(v - oracle[0])) <= 1e-12
    assert [rows.shape[1] for _, rows, _, _ in groups] == [1, 2, 3, 4, 5, 6, 7, 8]
    e0 = spectral.ground_cluster(mat)[1]
    assert small == 9 and abs(e0 - np.linalg.eigvalsh(mat.toarray())[0]) <= 1e-12


def test_stacked_small_blocks_check_every_residual(monkeypatch):
    mat = _scattered_blocks([3, 3], phased=False)
    real_eigh = np.linalg.eigh

    def skewed(a):
        vals, vecs = real_eigh(a)
        vals[-1, -1] += 1e-6        # one pair of the last stack is off
        return vals, vecs

    monkeypatch.setattr(spectral.np.linalg, "eigh", skewed)
    with pytest.raises(ConvergenceError, match="eigenpair 2 residual"):
        spectral._block_levels(mat)


def _nan_last_value(monkeypatch):
    """Make ``np.linalg.eigh`` return NaN as the last value of every matrix."""
    real_eigh = np.linalg.eigh

    def nan_eigh(a):
        vals, vecs = real_eigh(a)
        vals[..., -1] = np.nan
        return vals, vecs

    monkeypatch.setattr(spectral.np.linalg, "eigh", nan_eigh)


def test_a_nan_value_fails_the_stacked_residual_check(monkeypatch):
    pair = np.array([[0.0, -1.0], [-1.0, 0.0]])
    mat = sp.csr_matrix(sp.block_diag([pair, 2 * pair]))
    _nan_last_value(monkeypatch)
    with pytest.raises(ConvergenceError, match="eigenpair 1 residual nan"):
        spectral.ground_cluster(mat)


def test_a_nan_value_fails_the_dense_residual_check(monkeypatch):
    path = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    _nan_last_value(monkeypatch)
    with pytest.raises(ConvergenceError, match="eigenpair 2 residual nan"):
        eig_lowest(path, 3)


def test_a_nan_lanczos_copy_fails_the_residual_check(monkeypatch):
    # a phased ring of dimension 600 takes Lanczos and, not being signed for
    # Perron-Frobenius, the deflated solve; a NaN there is no value above
    # the cluster, so it is solved as a copy, whose residual must fail
    t = np.exp(0.3j)
    ring = sp.diags([np.full(599, t), np.full(599, np.conj(t)), [np.conj(t)], [t]],
                    [1, -1, 599, -599]).tocsr()
    assert spectral.uses_lanczos(ring)
    real_lanczos = spectral._lanczos

    def nan_deflated(op, count, tol=0.0, seed=spectral._EIG_SEED):
        vals, vecs = real_lanczos(op, count, tol=tol, seed=seed)
        if not sp.issparse(op):
            vals[:] = np.nan
        return vals, vecs

    monkeypatch.setattr(spectral, "_lanczos", nan_deflated)
    with pytest.raises(ConvergenceError, match="eigenpair 0 residual nan"):
        spectral.ground_cluster(ring)


def _spy_eigh(monkeypatch):
    calls = []
    real_eigh = spectral.sla.eigh

    def spy(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigh", spy)
    return calls


def _same_pairs(mat, vals, vecs):
    # equal values and orthonormal eigenvectors; degenerate levels may come
    # back rotated within their eigenspace
    full_vals = np.linalg.eigh(mat)[0]
    count = vals.size
    assert np.max(np.abs(vals - full_vals[:count])) <= 1e-10
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(count))) <= 1e-10
    assert np.max(np.abs(mat @ vecs - vecs * vals)) <= 1e-10


def test_subset_dense_path_matches_full_eigh_on_the_200_oracle(monkeypatch):
    rng = np.random.default_rng(42)
    a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    a = a + a.conj().T
    calls = _spy_eigh(monkeypatch)
    vals, vecs = eig_lowest(a, 5)
    assert calls == [[0, 4]]
    _same_pairs(a, vals, vecs)


def test_subset_dense_path_matches_full_eigh_on_holstein_972(monkeypatch):
    h = assemble_holstein_sector(holstein_model(complete4(), 0.5, cutoff=2), Fraction(1, 2))
    assert h.dimension == 972
    assert spectral.uses_lanczos(spectral.as_matrix(h))      # the policy's route
    monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: False)
    calls = _spy_eigh(monkeypatch)
    vals, vecs = eig_lowest(h, 6)
    assert calls == [[0, 5]]
    _same_pairs(h.op.toarray(), vals, vecs)


def test_full_eigh_when_nearly_every_pair_is_asked_for(monkeypatch):
    calls = _spy_eigh(monkeypatch)
    vals, _ = eig_lowest(np.diag([3.0, -2.0, 7.0, 0.5]), 3)
    assert calls == []
    assert np.allclose(vals, [-2.0, 0.5, 3.0])


def test_exact_resolvent_norm_matches_power_iteration():
    model = complete4()
    us = (1e2, 1e4)
    z, matrices, r_limit = spectral._limit_resolvent(model, us, None)
    _, exact = resolvent_gaps(model, us, z)
    for h_u, gap in zip(matrices, exact, strict=True):
        diff = spectral._resolvent_difference(h_u.matrix, r_limit, z)
        assert gap == float(np.linalg.norm(diff, 2))
        assert abs(operator_norm(diff) - gap) <= 1e-8 * gap


def test_default_z_holds_the_projected_norm_of_power_iteration():
    for model in (complete4(), square_diag4()):
        h0 = assemble_hubbard_full(model, 0.0).matrix
        idx = np.nonzero(spectral._projector_diagonal(model) > 0.5)[0]
        oracle = operator_norm(h0.tocsr()[np.ix_(idx, idx)])
        z = resolvent_gaps(model, [])[0]
        assert z.real == 0 and abs(z.imag / 2 - 1 - oracle) <= 1e-8 * oracle


def _torus(n: int) -> sp.csr_matrix:
    ring = sp.diags([np.ones(n - 1), np.ones(n - 1), [1.0], [1.0]], [1, -1, n - 1, 1 - n])
    eye = sp.identity(n)
    return (sp.kron(ring, eye) + sp.kron(eye, ring)).tocsr()


def _spy_lanczos(monkeypatch):
    calls = []
    real_lanczos = spectral._lanczos

    def spy(op, count, tol=0.0, seed=spectral._EIG_SEED):
        vals, vecs = real_lanczos(op, count, tol=tol, seed=seed)
        calls.append((tol, seed, vals))
        return vals, vecs

    monkeypatch.setattr(spectral, "_lanczos", spy)
    return calls


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
def test_deflation_guard_finds_the_copy_lanczos_misses(monkeypatch, phased):
    # adjacency of the 31 x 31 torus: one connected block of dimension 961
    # whose lowest level 2 cos(30 pi / 31) + 2 cos(32 pi / 31) is four-fold;
    # D T D* with seeded random phases D is complex Hermitian, connected and
    # isospectral, and takes scipy's complex (eigs) route
    mat = _torus(31)
    if phased:
        phases = np.exp(2j * np.pi * np.random.default_rng(6).random(mat.shape[0]))
        mat = (sp.diags(phases) @ mat @ sp.diags(phases.conj())).tocsr()
    dense = np.linalg.eigvalsh(mat.toarray())
    tol = spectral.CLUSTER_TOL * (1.0 + abs(dense[0]))
    assert np.count_nonzero(dense - dense[0] <= tol) == 4
    assert spectral.sign_structure(mat)[1].size == 1 and spectral.uses_lanczos(mat)
    calls = _spy_lanczos(monkeypatch)
    [(members, _, [vals], [vecs])] = spectral._block_levels(mat)
    assert members.tolist() == [0]
    e0 = vals[0]
    copies = int(np.count_nonzero(vals - e0 <= tol))
    assert copies == vecs.shape[1] == 4
    assert abs(vals[copies] - e0 - (dense[4] - dense[0])) <= 1e-9
    # the first solve holds one copy; three deflated solves land on a missed
    # one, each from its own start vector, and the fourth above the cluster
    assert calls[0][2].size == 1
    guards = [(seed, found[0]) for tol_, seed, found in calls if tol_ > 0]
    assert [found - e0 <= tol for _, found in guards] == [True, True, True, False]
    assert len({seed for seed, _ in guards}) == 4


def _same_report(policy, dense):
    assert (policy.degeneracy, policy.resolved_s) == (dense.degeneracy, dense.resolved_s)
    assert abs(policy.ground_energy - dense.ground_energy) <= 1e-10
    assert abs(policy.gap - dense.gap) <= 1e-9
    assert abs(policy.stot2_expectation - dense.stot2_expectation) <= 1e-9


# complete-4 with seeded hoppings in [0.5, 1.5] and gamma = 0.5: its Lang-Firsov
# M = 1/2 sector at cutoff 2 has the excited pair 0.9688 and 0.9689 above E0
_SEEDED_COMPLETE4 = {(0, 1): 1.1155107145922238, (0, 2): 1.104311521729088,
                     (0, 3): 1.274519101879528, (1, 2): 1.1063294995345345,
                     (1, 3): 1.251599042656105, (2, 3): 1.071615045732822}


def test_lanczos_route_matches_dense_on_a_clustered_lang_firsov_sector(monkeypatch):
    t = np.zeros((4, 4))
    for (x, y), value in _SEEDED_COMPLETE4.items():
        t[x, y] = t[y, x] = value
    h = assemble_lang_firsov_sector(holstein_model(LatticeModel(4, t), 0.5), Fraction(1, 2))
    coo = spectral.as_matrix(h).tocoo()
    assert h.dimension == 972 and spectral.uses_lanczos(coo.tocsr())
    assert np.any(coo.data[coo.row != coo.col] > 0)         # not Perron-Frobenius signed
    calls = _spy_lanczos(monkeypatch)
    policy = ground_report(h)
    # a simple ground level: one solve for it and one deflated solve for the gap
    assert policy.degeneracy == 1 and len(calls) == 2
    monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: False)
    _same_report(policy, ground_report(h))


_FORMS = {"holstein": assemble_holstein_sector, "langfirsov": assemble_lang_firsov_sector}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("cutoff", [2, 3])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
def test_policy_route_matches_dense_on_the_criterion7_sectors(monkeypatch, form, cutoff, gamma):
    model = holstein_model(complete4(), gamma)
    sectors = []
    for m in sector_magnetizations(4):
        h = _FORMS[form](model, m, cutoff=cutoff)
        # above the crossover the route does not depend on sparsity, and the
        # dense oracle costs seconds per sector: gamma = 0.5 at M = 1/2
        # stands for the other couplings and the mirrored sector
        if h.dimension <= spectral.DENSE_CROSSOVER or (gamma == 0.5 and m > 0):
            sectors.append((h, ground_report(h)))
    monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: False)
    for h, policy in sectors:
        _same_report(policy, ground_report(h))


@pytest.mark.parametrize("cutoff", [2, 3])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
def test_real_polaron_frame_reports_as_its_complex_cast(gamma, cutoff):
    model = holstein_model(complete4(), gamma)
    for m in sector_magnetizations(4):
        h = assemble_lang_firsov_sector(model, m, cutoff=cutoff)
        assert h.op.matrix.dtype == np.float64
        cast = replace(h, op=SparseHermitian(h.op.matrix.astype(complex)))
        _same_report(ground_report(h), ground_report(cast))


@pytest.mark.parametrize("sites, m", [(9, Fraction(0)), (12, Fraction(1, 2))],
                         ids=["complete9-M0", "complete12-M1/2"])
def test_policy_route_matches_dense_on_complete_graphs(monkeypatch, sites, m):
    h = assemble_nagaoka_sector(LatticeModel(sites, generate_lattice("complete", sites, 1.0)), m)
    calls = _spy_lanczos(monkeypatch)
    policy = ground_report(h)
    # a Perron-Frobenius-signed block: one solve for its lowest two pairs
    assert [(tol, vals.size) for tol, _, vals in calls] == [(0.0, 2)]
    monkeypatch.setattr("nagaoka.spectral.uses_lanczos", lambda mat: False)
    _same_report(policy, ground_report(h))


def test_solver_policy_on_the_benchmark_matrices():
    tri2x4 = LatticeModel(8, generate_lattice("triangular_patch", (2, 4), 1.0))
    complete9 = LatticeModel(9, generate_lattice("complete", 9, 1.0))
    phonons = holstein_model(complete4(), 0.5)
    routes = {
        # (dimension, stored entries per row, dtype): route
        "2x4 patch M=1/2 (280, 3.2, real)": (assemble_nagaoka_sector(tri2x4, Fraction(1, 2)), False),
        "complete-9 M=0 (630, 8, real)": (assemble_nagaoka_sector(complete9, 0), True),
        "Holstein M=1/2 (972, 8, real)": (assemble_holstein_sector(phonons, Fraction(1, 2)), True),
        "Lang-Firsov M=3/2 (324, 28, real)":
            (assemble_lang_firsov_sector(phonons, Fraction(3, 2)), False),
        "Lang-Firsov M=1/2 (972, 28, real)":
            (assemble_lang_firsov_sector(phonons, Fraction(1, 2)), True),
        # the hole-displaced basis, which ed solves for the Lang-Firsov form
        "hole frame M=3/2 (324, 6, real)":
            (assemble_lang_firsov_hole_sector(phonons, Fraction(3, 2)), False),
        "hole frame M=1/2 (972, 6, real)":
            (assemble_lang_firsov_hole_sector(phonons, Fraction(1, 2)), True),
        "hole frame M=1/2 cutoff 3 (3072, 7, real)":
            (assemble_lang_firsov_hole_sector(phonons, Fraction(1, 2), cutoff=3), True),
    }
    for name, (h, lanczos) in routes.items():
        assert spectral.uses_lanczos(spectral.as_matrix(h)) is lanczos, name
