from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagaoka.corpus import chain3, complete4, corpus_models, pair2
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.sector import (
    HoleSpinConfig,
    apply_move,
    connectivity_check,
    enumerate_sector,
    find_connector,
    hole_moves,
    sector_magnetizations,
    spin_flip,
)


def brute_force_orbits(model, m):
    """Independent oracle: set-based flood fill over raw configurations."""
    basis = enumerate_sector(model, m)
    t = model.hopping
    remaining = set(basis.configs)
    orbits = []
    while remaining:
        seed = next(iter(remaining))
        stack, orbit = [seed], {seed}
        while stack:
            c = stack.pop()
            for y in range(model.sites):
                if y == c.hole or t[c.hole, y] == 0.0:
                    continue
                nxt = apply_move(c, c.hole, y)
                if nxt not in orbit:
                    orbit.add(nxt)
                    stack.append(nxt)
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def scalar_moves(model, basis):
    """Independent oracle: the per-configuration ``apply_move`` walk, in
    (source, target site) order, ranked by a dict over the listed basis."""
    index = {c: i for i, c in enumerate(basis.configs)}
    t = model.hopping
    moves = [(index[apply_move(c, c.hole, y)], j, c.hole, y)
             for j, c in enumerate(basis.configs)
             for y in range(model.sites) if y != c.hole and t[c.hole, y] != 0.0]
    return np.array(moves, dtype=np.intp).reshape(-1, 4).T


def brute_force_distances(model, m, start):
    """Independent oracle: hop count from ``start`` to every configuration
    of its orbit, by a layered set-based flood fill."""
    t = model.hopping
    dist, layer, d = {start: 0}, [start], 0
    while layer:
        d += 1
        nxt = []
        for c in layer:
            for y in range(model.sites):
                if y == c.hole or t[c.hole, y] == 0.0:
                    continue
                moved = apply_move(c, c.hole, y)
                if moved not in dist:
                    dist[moved] = d
                    nxt.append(moved)
        layer = nxt
    return dist


def oracle_models():
    models = dict(corpus_models())
    models["complete6"] = LatticeModel(6, generate_lattice("complete", 6, 1.0))
    models["ring8"] = LatticeModel(8, generate_lattice("ring", 8, 1.0))
    for nx, ny in ((2, 3), (2, 4)):
        models[f"tri{nx}x{ny}"] = LatticeModel(
            nx * ny, generate_lattice("triangular_patch", (nx, ny), 1.0))
    return models


def assert_moves_match_scalar_walk(model, basis):
    got = hole_moves(model, basis)
    ref = scalar_moves(model, basis)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert set(map(tuple, got.T.tolist())) == set(map(tuple, ref.T.tolist()))
    order = np.lexsort((got[3], got[1]))        # by source, then target site
    assert np.array_equal(got[:, order], ref)


def assert_orbits_match_brute_force(model, m, basis):
    rep = connectivity_check(model, m)
    oracle = {frozenset(basis.rank(c.hole, c.up_mask) for c in orbit)
              for orbit in brute_force_orbits(model, m)}
    assert {frozenset(o) for o in rep.orbits} == oracle
    assert rep.connected == (len(oracle) == 1)
    assert all(list(o) == sorted(o) for o in rep.orbits)
    assert [o[0] for o in rep.orbits] == sorted(o[0] for o in rep.orbits)


def test_sector_dimensions():
    assert enumerate_sector(pair2(), Fraction(1, 2)).dimension == 2
    assert enumerate_sector(complete4(), Fraction(1, 2)).dimension == 12
    assert enumerate_sector(complete4(), Fraction(3, 2)).dimension == 4


def test_m_out_of_range():
    with pytest.raises(ValueError):
        enumerate_sector(complete4(), Fraction(5, 2))
    with pytest.raises(ValueError):
        enumerate_sector(chain3(), Fraction(1, 2))   # three sites have integer sectors
    with pytest.raises(ValueError):
        enumerate_sector(pair2(), 0.3)


def test_total_configuration_count():
    for model in corpus_models().values():
        total = sum(enumerate_sector(model, m).dimension
                    for m in sector_magnetizations(model.sites))
        assert total == model.sites * 2 ** (model.sites - 1)


def test_canonical_ordering_and_index():
    basis = enumerate_sector(complete4(), Fraction(1, 2))
    keys = [(c.hole, c.up_mask) for c in basis.configs]
    assert keys == sorted(keys)
    assert all(basis.rank(c.hole, c.up_mask) == i for i, c in enumerate(basis.configs))
    assert all(not (c.up_mask >> c.hole) & 1 for c in basis.configs)


def test_rank_inverts_enumeration_and_rejects_outsiders():
    for model in oracle_models().values():
        for m in sector_magnetizations(model.sites):
            basis = enumerate_sector(model, m)
            rows = basis.rank(basis.holes, basis.masks)
            assert np.array_equal(rows, np.arange(basis.dimension))
    basis = enumerate_sector(complete4(), Fraction(1, 2))     # K = C(3, 2) per hole
    assert basis.rank(1, 0b1100) == 3 * 1 + 2                 # largest mask of hole 1
    with pytest.raises(ValueError):
        basis.rank(1, 0b0110)                                 # hole bit set
    with pytest.raises(ValueError):
        basis.rank(1, 0b1000)                                 # one up spin
    with pytest.raises(ValueError):
        basis.rank(4, 0b0011)                                 # no site 4
    with pytest.raises(ValueError):
        basis.rank(0, 1 << 70)
    with pytest.raises(ValueError):
        basis.rank(np.array([0, 1]), np.array([0b0110, 0b0110]))


def test_hole_moves_equal_the_scalar_walk():
    for model in oracle_models().values():
        for m in sector_magnetizations(model.sites):
            assert_moves_match_scalar_walk(model, enumerate_sector(model, m))


def test_apply_move_semantics():
    c = HoleSpinConfig(hole=0, up_mask=0b010)       # hole at 0, up spin at 1
    moved = apply_move(c, 0, 1)
    assert moved == HoleSpinConfig(hole=1, up_mask=0b001)
    assert apply_move(HoleSpinConfig(hole=2, up_mask=0b001), 0, 1) is None
    with pytest.raises(ValueError):
        apply_move(c, 0, 0)


def test_apply_move_is_involution():
    for model in (complete4(), chain3()):
        for m in sector_magnetizations(model.sites):
            for c in enumerate_sector(model, m).configs:
                for y in range(model.sites):
                    if y == c.hole:
                        continue
                    back = apply_move(apply_move(c, c.hole, y), y, c.hole)
                    assert back == c


def test_connectivity_matches_brute_force():
    for model in oracle_models().values():
        for m in sector_magnetizations(model.sites):
            assert_orbits_match_brute_force(model, m, enumerate_sector(model, m))


def test_open_chain_middle_sector_splits():
    rep = connectivity_check(chain3(), 0)
    assert not rep.connected
    assert sorted(rep.orbit_sizes) == [3, 3]


def test_polarized_sector_connected_when_graph_connected():
    for model in corpus_models().values():
        top = sector_magnetizations(model.sites)[-1]
        assert connectivity_check(model, top).connected


def test_spin_flip_symmetry():
    for model in corpus_models().values():
        for m in sector_magnetizations(model.sites):
            a = connectivity_check(model, m)
            b = connectivity_check(model, -m)
            assert a.connected == b.connected
            assert sorted(a.orbit_sizes) == sorted(b.orbit_sizes)


def test_spin_flip_is_an_involution_that_keeps_holes():
    for name, model in oracle_models().items():
        full = (1 << model.sites) - 1
        for m in sector_magnetizations(model.sites):
            basis, flipped = enumerate_sector(model, m), enumerate_sector(model, -m)
            rows = spin_flip(basis, flipped)
            assert np.array_equal(np.sort(rows), np.arange(basis.dimension)), (name, m)
            assert np.array_equal(flipped.holes[rows], basis.holes)
            images = flipped.masks[rows]
            assert np.all(images & basis.masks == 0)
            assert np.all(images | basis.masks | (1 << basis.holes) == full)
            assert np.all(np.bitwise_count(images) == model.sites - 1 - basis.n_up)
            assert np.array_equal(spin_flip(flipped, basis)[rows], np.arange(basis.dimension))
            if m != 0:                  # the images lie in -M, not in M
                with pytest.raises(ValueError, match="outside the sector"):
                    spin_flip(basis, basis)


def test_identity_connector():
    basis = enumerate_sector(pair2(), Fraction(1, 2))
    c = basis.configs[0]
    conn = find_connector(pair2(), Fraction(1, 2), c, c)
    assert conn.length == 0
    assert conn.apply(c) == c


def test_two_site_connector():
    basis = enumerate_sector(pair2(), Fraction(1, 2))
    a = next(c for c in basis.configs if c.hole == 0)
    b = next(c for c in basis.configs if c.hole == 1)
    conn = find_connector(pair2(), Fraction(1, 2), a, b)
    assert conn.path == (0, 1)
    assert conn.length == 1
    assert conn.apply(a) == b


def test_connector_none_across_orbits():
    basis = enumerate_sector(chain3(), 0)
    rep = connectivity_check(chain3(), 0)
    a = basis.configs[rep.orbits[0][0]]
    b = basis.configs[rep.orbits[1][0]]
    assert find_connector(chain3(), 0, a, b) is None


def test_connector_application_lands_on_target():
    model = complete4()
    basis = enumerate_sector(model, Fraction(1, 2))
    rng = np.random.default_rng(3)
    t = model.hopping
    for _ in range(25):
        a = basis.configs[rng.integers(basis.dimension)]
        b = basis.configs[rng.integers(basis.dimension)]
        conn = find_connector(model, Fraction(1, 2), a, b)
        assert conn is not None
        assert conn.apply(a) == b
        for frm, to in zip(conn.path, conn.path[1:]):
            assert t[frm, to] != 0.0


def test_connector_lengths_are_flood_fill_distances():
    rng = np.random.default_rng(11)
    for name, model in oracle_models().items():
        for m in sector_magnetizations(model.sites):
            configs = enumerate_sector(model, m).configs
            for a in (configs[i] for i in rng.integers(len(configs), size=2)):
                dist = brute_force_distances(model, m, a)
                for b in (configs[i] for i in rng.integers(len(configs), size=4)):
                    conn = find_connector(model, m, a, b)
                    if b not in dist:
                        assert conn is None, (name, m)
                        continue
                    assert conn.length == dist[b], (name, m)
                    assert conn.apply(a) == b


@st.composite
def generated_sectors(draw):
    sites = draw(st.integers(2, 7))
    pairs = [(x, y) for x in range(sites) for y in range(x + 1, sites)]
    bonds = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    t = np.zeros((sites, sites))
    for x, y in bonds:
        t[x, y] = t[y, x] = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        t[np.diag_indices(sites)] = draw(st.lists(st.floats(0.0, 2.0),
                                                  min_size=sites, max_size=sites))
    m = draw(st.sampled_from(sector_magnetizations(sites)))
    return LatticeModel(sites, t), m


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(generated_sectors())
def test_sector_layer_on_generated_graphs(case):
    model, m = case
    basis = enumerate_sector(model, m)
    keys = list(zip(basis.holes.tolist(), basis.masks.tolist()))
    assert keys == sorted(set(keys))
    assert basis.dimension == model.sites * comb(model.sites - 1, basis.n_up)
    assert_moves_match_scalar_walk(model, basis)
    assert_orbits_match_brute_force(model, m, basis)
