"""The vectorized occupation-number layer against the per-word and
per-state builders of ``occupation_oracle``: equal CSR arrays, not merely
close ones."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nagaoka.hamiltonian as hamiltonian
import occupation_oracle as oracle
from nagaoka.acceptance import holstein_model, radiation_triangle
from nagaoka.corpus import complete4, corpus_models, pair2, triangle3
from nagaoka.hamiltonian import (
    assemble_holstein_sector,
    assemble_hubbard_full,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
    hubbard_electron_matrices,
    hubbard_electron_matrix,
    hubbard_full_matrices,
    photon_modes,
)
from nagaoka.manybody import (
    _csr,
    _lowering,
    _mode_sum,
    _number,
    boson_basis,
    build_gutzwiller,
    fock_lowering,
    full_fock_basis,
    sector_embedding,
)
from nagaoka.model import LatticeModel, PhononBlock, generate_lattice
from nagaoka.sector import sector_magnetizations


def assert_same_csr(got, want, what=""):
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    assert got.shape == want.shape, what
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), f"{what}: {attr}"


FOCK_SIZES = [(1, 0), (1, 2), (2, 1), (3, 2), (3, 3), (4, 3), (4, 0), (4, 8), (5, 4), (6, 5)]


@pytest.mark.parametrize("sites, n", FOCK_SIZES)
def test_fock_words_and_rank_match_the_word_walk(sites, n):
    fock = full_fock_basis(sites, n)
    states = oracle.fock_states(sites, n)
    assert fock.words.dtype == np.int64 and fock.words.tolist() == list(states)
    assert np.array_equal(fock.rank(list(states)), np.arange(len(states)))
    occ = oracle.occupations(sites, n)
    assert fock.occupations.dtype == occ.dtype and np.array_equal(fock.occupations, occ)
    outside = next(w for w in range(1 << (2 * sites)) if w.bit_count() != n)
    with pytest.raises(ValueError, match="outside the Fock basis"):
        fock.rank([states[0], outside])


@pytest.mark.parametrize("sites, n", FOCK_SIZES)
def test_spin_ops_and_gutzwiller_equal_the_oracle(sites, n):
    fock = full_fock_basis(sites, n)
    assert_same_csr(fock_lowering(fock), oracle.spin_ops(sites, n)["Sminus"], "S-")
    assert_same_csr(build_gutzwiller(fock).matrix, oracle.gutzwiller(sites, n), "P")


def test_sector_embedding_rows_are_the_oracle_word_indices():
    for name, model in corpus_models().items():
        index = {w: i for i, w in enumerate(oracle.fock_states(model.sites, model.n_electrons))}
        for m in sector_magnetizations(model.sites):
            basis, _, rows, _ = sector_embedding(model, m)
            words = [config_word(model.sites, c) for c in basis.configs]
            assert rows.tolist() == [index[w] for w in words], f"{name} M={m}"


def config_word(sites: int, config) -> int:
    """Fock word of a configuration: its up spins in the up block, the
    remaining non-hole sites in the down block."""
    downs = ((1 << sites) - 1) & ~config.up_mask & ~(1 << config.hole)
    return config.up_mask | (downs << sites)


def _with_potential_and_coulomb(model, rng):
    t = model.hopping + np.diag(rng.uniform(0.0, 1.0, model.sites))
    uxy = np.triu(rng.uniform(0.0, 2.0, (model.sites, model.sites)), 1)
    return LatticeModel(model.sites, t, offsite_u=uxy + uxy.T)


def _hubbard_models():
    rng = np.random.default_rng(5)
    models = dict(corpus_models())
    models.update({f"{name}-potential-coulomb": _with_potential_and_coulomb(model, rng)
                   for name, model in corpus_models().items()})
    models["complete6"] = LatticeModel(6, generate_lattice("complete", 6, 1.0))
    return models


@pytest.mark.parametrize("name", sorted(_hubbard_models()))
def test_hubbard_matrix_equals_the_oracle_on_the_corpus(name):
    model = _hubbard_models()[name]
    for u in (0.0, 4.0):
        assert_same_csr(hubbard_electron_matrix(model, u), oracle.hubbard_matrix(model, u),
                        f"{name} U={u}")
    # one sweep builds the hopping once; every U still matches the oracle
    us = (4.0, 0.0, -1.5, 1e6)
    for u, swept in zip(us, hubbard_electron_matrices(model, us), strict=True):
        assert_same_csr(swept, oracle.hubbard_matrix(model, u), f"{name} U={u} swept")


@st.composite
def hubbard_models(draw):
    sites = draw(st.integers(2, 6))
    pairs = [(x, y) for x in range(sites) for y in range(x, sites)]
    amplitude = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    t = np.zeros((sites, sites))
    uxy = np.zeros((sites, sites))
    for x, y in pairs:
        t[x, y] = t[y, x] = draw(amplitude)
        if x != y:
            uxy[x, y] = uxy[y, x] = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    u = draw(st.floats(0.0, 50.0))
    return LatticeModel(sites, t, offsite_u=uxy), u


@settings(max_examples=25, deadline=None)
@given(hubbard_models())
def test_hubbard_matrix_equals_the_oracle_on_random_graphs(model_u):
    model, u = model_u
    assert_same_csr(hubbard_electron_matrix(model, u), oracle.hubbard_matrix(model, u))


BOSON_SIZES = [(1, 0), (2, 0), (1, 3), (2, 3), (3, 2), (4, 3), (1, 20), (2, 20)]


@pytest.mark.parametrize("modes, cutoff", BOSON_SIZES)
def test_single_mode_embeddings_equal_the_per_state_builder(modes, cutoff):
    bosons = boson_basis(modes, cutoff)
    b = _lowering(cutoff)

    def embedded(factor):
        return _csr([_mode_sum({y: factor}, bosons)], bosons.dimension)

    for y in range(modes):
        for kind, factor in (("annihilate", b), ("create", b.T)):
            assert_same_csr(embedded(factor),
                            oracle.build_boson_op(modes, cutoff, kind, y), f"{kind} {y}")
        bdag = oracle.build_boson_op(modes, cutoff, "create", y)
        assert_same_csr(embedded(b + b.T), bdag + bdag.T, f"b* + b on {y}")


@pytest.mark.parametrize("modes, cutoff", BOSON_SIZES)
def test_kronecker_sums_equal_the_per_state_builder(modes, cutoff):
    bosons = boson_basis(modes, cutoff)
    n = _number(cutoff)
    assert_same_csr(_csr([_mode_sum(dict.fromkeys(range(modes), n), bosons)], bosons.dimension),
                    oracle.build_boson_op(modes, cutoff, "number_total"), "N_b")
    omegas = [1.0 + 0.1 * np.pi * j for j in range(modes)]
    assert_same_csr(_csr([_mode_sum({j: w * n for j, w in enumerate(omegas)}, bosons)],
                         bosons.dimension),
                    sp.diags(oracle.field_energy(omegas, cutoff)).tocsr(), "field energy")


class _Captured(Exception):
    pass


def _captured_terms(monkeypatch, module, build):
    """The Kronecker terms a form hands to ``_kron_sum`` with the factor
    dimensions; the build stops there."""
    captured = []

    def capture(terms, dims):
        captured.extend([terms, dims])
        raise _Captured

    monkeypatch.setattr(module, "_kron_sum", capture)
    with pytest.raises(_Captured):
        build()
    return captured


def _oracle_holstein(electron, occ, phonon, cutoff):
    """electron (x) I + sum_y diag(occ g_y) (x) (b*_y + b_y) + I (x) omega N_b
    with the per-state boson operators, as a running sparse sum."""
    modes = phonon.coupling.shape[1]
    dim = (cutoff + 1) ** modes
    total = sp.kron(electron, sp.identity(dim), format="csr")
    for y in range(modes):
        if np.any(phonon.coupling[:, y]):
            bdag = oracle.build_boson_op(modes, cutoff, "create", y)
            total = total + sp.kron(sp.diags(occ @ phonon.coupling[:, y]), bdag + bdag.T)
    nb = oracle.build_boson_op(modes, cutoff, "number_total")
    return (total + sp.kron(sp.identity(occ.shape[0]),
                            phonon.frequency * nb)).tocsr()


def _phonon_models():
    g = np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 0.5]])
    return {
        "pair2-diagonal": holstein_model(pair2(), 0.5, omega=1.3, cutoff=3),
        "triangle3-offdiagonal": LatticeModel(3, triangle3().hopping,
                                              phonon=PhononBlock(coupling=g, frequency=0.7,
                                                                 per_site_cutoff=2)),
        "complete4-cutoff0": holstein_model(complete4(), 0.5, cutoff=0),
    }


@pytest.mark.parametrize("name", sorted(_phonon_models()))
def test_holstein_forms_equal_the_oracle_assembly(name):
    model = _phonon_models()[name]
    ph = model.phonon
    cutoff = ph.per_site_cutoff
    if model.sites <= 3:
        occ = oracle.occupations(model.sites, model.n_electrons).sum(axis=1).astype(float)
        us = (2.0, 0.0)
        for u, swept in zip(us, hubbard_full_matrices(model, us), strict=True):
            want = _oracle_holstein(oracle.hubbard_matrix(model, u), occ, ph, cutoff)
            assert_same_csr(swept.matrix, want, f"full space U={u} swept")
            assert_same_csr(assemble_hubbard_full(model, u).matrix, want, f"full space U={u}")
    for m in sector_magnetizations(model.sites):
        h = assemble_holstein_sector(model, m)
        electron = assemble_nagaoka_sector(model, m)
        occ = np.ones((h.basis.dimension, model.sites))
        occ[np.arange(h.basis.dimension), h.basis.holes] = 0.0
        want = _oracle_holstein(electron.op.matrix, occ, ph, cutoff)
        assert_same_csr(h.op.matrix, want, f"sector M={m}")


def test_radiation_field_energy_equals_the_per_state_sum(monkeypatch):
    model = radiation_triangle(kappa=1.0, cutoff=4)
    omegas = [md.omega * (1.0 + 0.25 * j) for j, md in enumerate(photon_modes(model))]
    modes = [hamiltonian.PhotonMode(nvec=md.nvec, lam=md.lam, k=md.k, omega=w, eps=md.eps)
             for md, w in zip(photon_modes(model), omegas)]
    terms, dims = _captured_terms(monkeypatch, hamiltonian,
                                  lambda: assemble_radiation_sector(model, Fraction(0), modes=modes))
    assert_same_csr(_csr([terms[-1][1]], dims[1]), sp.diags(oracle.field_energy(omegas, 4)).tocsr())


def test_qgrid_oscillator_sum_equals_the_dense_kronecker_sum(monkeypatch):
    model = holstein_model(triangle3(), gamma=0.5)
    spacing = np.sqrt(2.0) * 0.5 / 3
    terms, dims = _captured_terms(monkeypatch, hamiltonian,
                                  lambda: hamiltonian.assemble_qgrid_sector(model, Fraction(0), 8,
                                                                            spacing))
    osc = hamiltonian._oscillator_matrix(8, spacing, 1.0)
    eye = np.eye(8)
    want = 0
    for z in range(3):
        factors = [osc if j == z else eye for j in range(3)]
        want = want + np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert np.array_equal(_csr([terms[-1][1]], dims[1]).toarray(), want)
