from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from block_oracle import block_levels
from block_oracle import ground_cluster as oracle_cluster
from nagaoka import spectral
from nagaoka.acceptance import radiation_triangle
from nagaoka.hamiltonian import assemble_radiation_sector


def _random_block(rng, n: int, phased: bool) -> np.ndarray:
    a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if phased else 0)
    return a + a.conj().T + 3 * np.eye(n)            # a full block is connected


def _ring(n: int, t: complex) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex if np.iscomplexobj(t) else float)
    for i in range(n):
        a[i, (i + 1) % n], a[(i + 1) % n, i] = t, np.conj(t)
    return a


def _complete(n: int, t: float) -> np.ndarray:
    return np.full((n, n), t) - t * np.eye(n)


def _scatter(blocks, seed: int) -> sp.csr_matrix:
    """The direct sum of ``blocks`` on randomly interleaved index sets."""
    perm = np.random.default_rng(seed).permutation(sum(b.shape[0] for b in blocks))
    return sp.csr_matrix(sp.block_diag(blocks).toarray()[np.ix_(perm, perm)])


def _same_cluster(mat):
    new, old = spectral.ground_cluster(mat), oracle_cluster(mat)
    for a, b in zip(new, old):
        assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
    return new


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("lanczos_lowest", [False, True], ids=["small-ground", "lanczos-ground"])
def test_stacked_route_equals_the_per_block_oracle(phased, lanczos_lowest):
    rng = np.random.default_rng(11 + 2 * phased + lanczos_lowest)
    blocks = [_random_block(rng, n, phased) for n in (1, 2, 3, 4, 5, 6, 7, 8, 6, 3, 1, 2)]
    # one sparse block of dimension 520, routed to Lanczos by the solver policy
    ring = _ring(520, np.exp(0.3j) if phased else -1.0)
    ring += np.diag(rng.uniform(-1.0, 1.0, 520) - (8.0 if lanczos_lowest else 0.0))
    blocks.insert(5, ring)
    mat = _scatter(blocks, seed=4)
    assert spectral.uses_lanczos(sp.csr_matrix(ring))
    cluster, e0, degeneracy, gap, v0 = _same_cluster(mat)
    dense = np.linalg.eigvalsh(mat.toarray())
    assert abs(e0 - dense[0]) <= 1e-9 and abs(gap - (dense[1] - dense[0])) <= 1e-9
    assert degeneracy == 1 and np.linalg.norm(mat @ v0 - e0 * v0) <= 1e-8
    groups = spectral._block_levels(mat)
    assert sum(members.size for members, _, _, _ in groups) == len(blocks)


def _shared_ground_blocks():
    """Blocks of dimensions 4, 2, 7, 1, 3 and 2 whose lowest level is -1, with
    blocks of dimensions 3, 5 and 2 above it: the 4-ring at hopping -1/2,
    [[0, -1], [-1, 0]], the complete graphs K7 and K3 at hopping -1/6 and
    -1/2, and the 1x1 block [-1].  K7 is lifted by 1e-12, inside the
    cluster tolerance, as LAPACK puts its lowest value 4e-16 below -1."""
    pair = np.array([[0.0, -1.0], [-1.0, 0.0]])
    above = [_complete(n, 0.5) + 2 * np.eye(n) for n in (3, 5, 2)]
    lifted = _complete(7, -1 / 6) + 1e-12 * np.eye(7)
    return [above[0], _ring(4, -0.5), pair, above[1], lifted, np.array([[-1.0]]),
            _complete(3, -0.5), pair.copy(), above[2]]


def test_a_ground_level_shared_by_blocks_of_different_sizes():
    mat = _scatter(_shared_ground_blocks(), seed=8)
    cluster, e0, degeneracy, gap, v0 = _same_cluster(mat)
    assert abs(e0 + 1.0) <= 1e-12 and degeneracy == 6
    assert abs(gap - np.linalg.eigvalsh(mat.toarray())[6] - 1.0) <= 1e-9
    assert np.max(np.abs(cluster.T @ cluster - np.eye(6))) <= 1e-12
    # the blocks holding the cluster, by their dimension, in block order
    parts, _ = block_levels(mat)
    holders = [idx.size for idx, vals, _ in parts if vals[0] - e0 <= 1e-8]
    assert sorted(holders) == [1, 2, 2, 3, 4, 7]


def test_tied_block_minima_take_v0_from_the_first_block():
    mat = _scatter(_shared_ground_blocks(), seed=8)
    parts, e0 = block_levels(mat)
    tied = [j for j, (_, vals, _) in enumerate(parts) if vals[0] == e0]
    sizes = [parts[j][0].size for j in tied]
    # exact ties across sizes: the first tied block is not of the first group's size
    assert len(set(sizes)) >= 2 and sizes[0] != min(sizes)
    v0 = _same_cluster(mat)[4]
    assert np.array_equal(np.nonzero(v0)[0], parts[tied[0]][0])


@pytest.mark.parametrize("m", [Fraction(1), Fraction(0)])
def test_decoupled_radiation_sectors_equal_the_oracle(m):
    h = assemble_radiation_sector(radiation_triangle(kappa=1.0, cutoff=20), m)
    _same_cluster(spectral.as_matrix(h))


@pytest.mark.parametrize("case", ["generated", "radiation-1", "radiation-0"])
def test_small_blocks_take_one_eigh_per_size_and_no_single_block_solve(monkeypatch, case):
    if case == "generated":
        mat = _scatter([_random_block(np.random.default_rng(n), n, n % 2 == 0)
                        for n in (1, 2, 3, 4, 5, 6, 6, 3, 1, 2)], seed=2)
    else:
        model = radiation_triangle(kappa=1.0, cutoff=20)
        mat = spectral.as_matrix(assemble_radiation_sector(model, Fraction(case[-1])))
    sizes = set(spectral.sign_structure(mat)[1].tolist())
    assert max(sizes) <= spectral._DENSE_START
    calls = []
    real_eigh = np.linalg.eigh

    def spy(a):
        calls.append(a.shape[-1])
        return real_eigh(a)

    def refuse(*args, **kwargs):
        raise AssertionError("a stacked block went through _lowest_levels")

    monkeypatch.setattr(spectral.np.linalg, "eigh", spy)
    monkeypatch.setattr(spectral, "_lowest_levels", refuse)
    spectral.ground_cluster(mat)
    assert calls == sorted(sizes)


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("k", [1, 2])
def test_deflated_operator_equals_the_dense_projection(phased, k):
    rng = np.random.default_rng(3 * k + phased)
    n = 40
    mat = sp.random(n, n, density=0.2, random_state=rng, dtype=float)
    if phased:
        mat = mat + 1j * sp.random(n, n, density=0.2, random_state=rng)
    mat = (mat + mat.conj().T).tocsr()
    vecs = rng.standard_normal((n, k)) + (1j * rng.standard_normal((n, k)) if phased else 0)
    vecs = np.linalg.qr(vecs)[0]
    sigma = float(abs(mat).sum(axis=1).max())
    op = spectral._deflated(mat, vecs, sigma)
    proj = vecs @ vecs.conj().T
    rest = np.eye(n) - proj
    dense = rest @ mat.toarray() @ rest + sigma * proj
    applied = np.column_stack([op.matvec(e) for e in np.eye(n, dtype=mat.dtype)])
    assert op.dtype == mat.dtype and np.max(np.abs(applied - dense)) <= 1e-13


def _block_with_levels(rng, levels, phased: bool) -> np.ndarray:
    """A dense Hermitian block with the given levels in a random eigenbasis."""
    n = len(levels)
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + (1j * rng.standard_normal((n, n)) if phased else 0))[0]
    a = (q * np.asarray(levels)) @ q.conj().T
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("e0", [-3.0, 2.0])
@pytest.mark.parametrize("ring_offset", [0.0, 0.999, 1.001])
def test_block_minima_at_the_cluster_edge_equal_the_oracle(e0, ring_offset):
    # blocks whose lowest levels sit 0, 0.999 and 1.001 cluster tolerances
    # above E0, where a block's own cluster and the global one differ: one
    # solve per block still ends above the global cluster (block_oracle
    # asserts it), so degeneracy and gap are those of a dense solve
    tol = spectral.CLUSTER_TOL * (1.0 + abs(e0))
    rng = np.random.default_rng(int(10 * ring_offset) + (e0 > 0))
    edges = [(3, [0.999, 1.001]), (5, [1.001, 1.001]), (8, [0.0, 0.999, 1.001]),
             (9, [1.001]), (14, [0.999] * 7 + [1.001]), (4, [0.0])]
    blocks = [np.array([[e0]])]
    for n, offsets in edges:
        rest = rng.uniform(0.5, 3.0, n - len(offsets))
        blocks.append(_block_with_levels(rng, e0 + np.concatenate([tol * np.array(offsets), rest]),
                                         phased=n % 2 == 1))
    # a ring of dimension 520, routed to Lanczos, lowest level -2 + shift
    ring = _ring(520, -1.0) + (e0 + ring_offset * tol + 2.0) * np.eye(520)
    assert spectral.uses_lanczos(sp.csr_matrix(ring))
    blocks.insert(3, ring)
    mat = _scatter(blocks, seed=5)
    cluster, found_e0, degeneracy, gap, v0 = _same_cluster(mat)
    dense = np.linalg.eigvalsh(mat.toarray())
    expect = np.count_nonzero(dense - dense[0] <= spectral.CLUSTER_TOL * (1.0 + abs(dense[0])))
    inside = 1 + 1 + 2 + 7 + 1 + (ring_offset < 1)          # [e0], 3, 8, 14, 4 and the ring
    assert degeneracy == expect == inside
    assert abs(found_e0 - e0) <= 1e-12 and abs(gap - (dense[expect] - dense[0])) <= 1e-12
    assert abs(gap - 1.001 * tol) <= 1e-12
