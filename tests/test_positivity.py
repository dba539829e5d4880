from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nagaoka import hamiltonian
from nagaoka.acceptance import holstein_model
from nagaoka.corpus import chain3, complete4, corpus_models, pair2, triangle3
from nagaoka.errors import InconsistencyError, ModelValidationError
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.hamiltonian import (
    GRID_FORM,
    assemble_holstein_sector,
    assemble_nagaoka_sector,
    assemble_sector,
)
from nagaoka.positivity import (
    SectorCertifier,
    diagonal_perturbation_equivalence,
    eigenvector_certificate,
    ergodicity_certificate,
    improves_positivity_exp,
    pf_certificate,
    preserves_positivity,
    spin_lowering_positivity,
)
from nagaoka.sector import connectivity_check, sector_magnetizations
from nagaoka.spectral import (
    _block_levels,
    eig_lowest,
    ground_cluster,
    ground_report,
    sign_structure,
)


def test_preserves_positivity():
    rng = np.random.default_rng(6)
    assert preserves_positivity(rng.uniform(0.0, 1.0, size=(5, 5)))
    assert not preserves_positivity(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    for model in corpus_models().values():
        for m in sector_magnetizations(model.sites):
            h = assemble_nagaoka_sector(model, m).op.toarray()
            hopping_part = -(h - np.diag(np.diag(h)))
            assert preserves_positivity(hopping_part)


def test_improves_positivity_exp():
    cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert improves_positivity_exp(cycle)
    blocks = np.kron(np.eye(2), np.ones((2, 2)))
    assert not improves_positivity_exp(blocks)
    shift = np.triu(np.ones((4, 4)), k=1)
    assert not improves_positivity_exp(shift)
    with pytest.raises(ValueError):
        improves_positivity_exp(np.array([[0.0, -1.0], [0.0, 0.0]]))
    assert improves_positivity_exp(np.zeros((1, 1)))


def test_ergodicity_matches_bfs_oracle():
    assert ergodicity_certificate(assemble_nagaoka_sector(complete4(), Fraction(1, 2)))
    assert not ergodicity_certificate(assemble_nagaoka_sector(chain3(), 0))
    top = sector_magnetizations(4)[-1]
    assert ergodicity_certificate(assemble_nagaoka_sector(complete4(), top))


def test_pf_certificate_two_site():
    h = assemble_nagaoka_sector(pair2(), Fraction(1, 2))
    vals, vecs = eig_lowest(h, 2)
    cert = pf_certificate(h, vecs[:, 0], degeneracy=1)
    assert cert.offdiag_sign_ok and cert.irreducible
    assert cert.ground_unique and cert.ground_strictly_positive
    assert np.isclose(cert.min_entry, 1 / np.sqrt(2))


def test_pf_certificate_every_connected_corpus_sector():
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites):
            if not connectivity_check(model, m).connected:
                continue
            h = assemble_nagaoka_sector(model, m)
            rep = ground_report(h)
            _, vecs = eig_lowest(h, 1)
            cert = pf_certificate(h, vecs[:, 0], rep.degeneracy)
            assert cert.ground_strictly_positive and cert.min_entry > 1e-12, (name, m)


def test_pf_certificate_disconnected_makes_no_claim():
    h = assemble_nagaoka_sector(chain3(), 0)
    vals, vecs = eig_lowest(h, 3)
    degeneracy = int(np.sum(vals - vals[0] <= 1e-8))
    assert degeneracy == 2                      # one ground state per orbit
    cert = pf_certificate(h, vecs[:, 0], degeneracy)
    assert not cert.irreducible
    assert not cert.ground_unique               # reported, not raised


def test_stored_zeros_link_no_blocks():
    # two copies of [[0, -1], [-1, 0]] joined only by stored zeros at (1, 2)
    # and (2, 1): every reader of the sign structure sees the same two blocks
    rows, cols = [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2]
    mat = sp.csr_matrix(([-1.0, -1.0, 0.0, 0.0, -1.0, -1.0], (rows, cols)), shape=(4, 4))
    assert mat.nnz == 6
    order, sizes, re_max, im_max = sign_structure(mat)
    assert order.tolist() == [0, 1, 2, 3] and sizes.tolist() == [2, 2]
    assert re_max.tolist() == [0.0, 0.0] and im_max.tolist() == [0.0, 0.0]
    assert not ergodicity_certificate(mat)
    [(members, rows, _, _)] = _block_levels(mat)              # one stacked group of size 2
    assert members.tolist() == [0, 1] and rows.tolist() == [[0, 1], [2, 3]]
    _, e0, degeneracy, _, v0 = ground_cluster(mat)
    assert e0 == pytest.approx(-1.0) and degeneracy == 2
    cert = pf_certificate(mat, v0, degeneracy)
    assert cert.offdiag_sign_ok and not cert.irreducible and not cert.ground_unique


def test_pf_certificate_inconsistency_guard():
    h = assemble_nagaoka_sector(pair2(), Fraction(1, 2))
    _, vecs = eig_lowest(h, 1)
    with pytest.raises(InconsistencyError):
        pf_certificate(h, vecs[:, 0], degeneracy=2)   # a lying solver must be caught


def test_diagonal_perturbation_invariance():
    model = holstein_model(triangle3(), gamma=0.4)
    h = assemble_nagaoka_sector(model, 0)
    from nagaoka.hamiltonian import effective_coulomb

    occ = np.ones((h.dimension, 3))
    for i, c in enumerate(h.basis.configs):
        occ[i, c.hole] = 0.0
    ueff = effective_coulomb(model)
    dressed = np.einsum("ix,xy,iy->i", occ, ueff - np.diag(np.diag(ueff)), occ)
    assert diagonal_perturbation_equivalence(h, dressed)
    assert diagonal_perturbation_equivalence(h, np.zeros(h.dimension))
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert diagonal_perturbation_equivalence(h, rng.standard_normal(h.dimension) * 10.0)
    with pytest.raises(ValueError):
        diagonal_perturbation_equivalence(h, np.zeros(3))


def test_spin_lowering_positivity_corpus():
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites)[1:]:
            assert spin_lowering_positivity(model, m), (name, m)


def test_spin_lowering_positivity_goes_through_the_fermionic_operator(monkeypatch):
    import nagaoka.manybody as manybody
    import nagaoka.positivity as positivity

    built = []
    real_build = manybody.fock_lowering

    def recording_build(basis):
        built.append(basis.dimension)
        return real_build(basis)

    def forbidden(*args):
        raise AssertionError("criterion 9 must not use the direct lowering rule")

    monkeypatch.setattr(manybody, "fock_lowering", recording_build)
    monkeypatch.setattr(manybody, "sector_ladder", forbidden)
    monkeypatch.setattr(positivity, "sector_ladder", forbidden)
    assert spin_lowering_positivity(complete4(), Fraction(1, 2))
    assert built == [56]                         # C(8, 3) Fock words of 3 electrons


def _grid_certify(model, m, points, spacing):
    """Sector M on a position grid and its certificate, by the route of
    ``certify --qgrid``."""
    h = assemble_sector(model, GRID_FORM, m, (points, spacing))
    return h, SectorCertifier(model, GRID_FORM, (points, spacing))(h)


def test_qgrid_incommensurate_rejected():
    model = holstein_model(pair2(), gamma=0.5)
    with pytest.raises(ModelValidationError) as err:
        _grid_certify(model, Fraction(1, 2), 32, 0.1)
    assert err.value.condition == "commensurability"


def test_qgrid_site_limit():
    model = holstein_model(complete4(), gamma=0.5)
    with pytest.raises(ModelValidationError):
        _grid_certify(model, Fraction(1, 2), 8, 0.1)


def test_qgrid_broken_sign_is_an_inconsistency(monkeypatch):
    # an oscillator with positive off-diagonal entries breaks the cone the
    # grid form is built on: the certifier's sign check catches it
    real = hamiltonian._oscillator_matrix
    monkeypatch.setattr(hamiltonian, "_oscillator_matrix",
                        lambda *args: np.abs(real(*args)))
    with pytest.raises(InconsistencyError, match="lost the off-diagonal sign structure"):
        _grid_certify(holstein_model(pair2(), gamma=0.0), Fraction(1, 2), 8, 0.2)


def test_qgrid_zero_coupling_reduces_to_bare_certificate():
    model = holstein_model(pair2(), gamma=0.0)
    h, cert = _grid_certify(model, Fraction(1, 2), 48, 0.2)
    assert cert.basis_tag == "configuration x grid"
    assert cert.offdiag_sign_ok and cert.irreducible
    assert cert.ground_unique and cert.ground_strictly_positive
    assert h.dropped_constant == 0.0
    # oscillators in their ground level: energy close to the bare electron value
    assert abs(cert.ground_energy - (-1.0)) <= 5e-3


def test_qgrid_commensurate_positive_and_convergent():
    model = holstein_model(pair2(), gamma=0.5)
    displacement = np.sqrt(2.0) * 0.5
    reference = eig_lowest(assemble_holstein_sector(model, Fraction(1, 2), cutoff=12), 1)[0][0]
    errors = []
    for points, cells in ((32, 3), (64, 6)):
        h, cert = _grid_certify(model, Fraction(1, 2), points, displacement / cells)
        assert cert.ground_strictly_positive
        errors.append(abs(cert.ground_energy + h.dropped_constant - reference))
    assert errors[1] < errors[0]


#: Absolute bounds between the certifier and the eigenvector route on grid
#: sectors (observed 6.2e-15 on E0 and 2.4e-18 on min_entry, triangle at 16
#: points).
GRID_ENERGY_TOL = 1e-13
GRID_MIN_ENTRY_TOL = 1e-16


@pytest.mark.parametrize("points", [8, 16])
@pytest.mark.parametrize("base", [pair2, triangle3], ids=["pair", "triangle"])
def test_grid_certifier_matches_the_eigenvector_route(base, points):
    # descending |M|, as certify takes the sectors: the triangle's M = 0 is
    # lowered from M = 1, every other sector is polarized and solved
    model = holstein_model(base(), gamma=0.5)
    grid = (points, np.sqrt(2.0) * 0.5 / (points // 8))
    certifier = SectorCertifier(model, GRID_FORM, grid)
    for m in sorted(sector_magnetizations(model.sites), key=lambda m: (-abs(m), -m)):
        h = assemble_sector(model, GRID_FORM, m, grid)
        theorem, eigen = certifier(h), eigenvector_certificate(h)
        floats = {"min_entry": None, "ground_energy": None}
        assert {**vars(theorem), **floats} == {**vars(eigen), **floats}, m
        assert theorem.basis_tag == "configuration x grid" and theorem.ground_strictly_positive
        assert abs(theorem.min_entry - eigen.min_entry) <= GRID_MIN_ENTRY_TOL, m
        assert abs(theorem.ground_energy - eigen.ground_energy) <= GRID_ENERGY_TOL, m


def test_pf_certificate_names_the_tolerance_only_for_a_simple_level_below_it():
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InconsistencyError, match="fails at its min entry 3.000e-14, "
                                                 "within STRICT_POSITIVITY_TOL = 1e-12 of 0"):
        pf_certificate(h, np.array([1.0, 3e-14]), 1)
    for v, degeneracy in (([1.0, 3e-14], 2), ([1.0, -0.5], 1)):
        with pytest.raises(InconsistencyError, match="the eigensolve cannot be trusted"):
            pf_certificate(h, np.array(v), degeneracy)


def test_a_lowered_vector_below_the_tolerance_names_it(monkeypatch):
    # between the lowered min entry (1.10e-5) and the polarized one (1.91e-5)
    import nagaoka.positivity as positivity

    monkeypatch.setattr(positivity, "STRICT_POSITIVITY_TOL", 1.5e-5)
    model = holstein_model(complete4(), gamma=0.5)
    certifier = SectorCertifier(model, "holstein", 2)
    assert certifier(assemble_holstein_sector(model, Fraction(3, 2), 2)).ground_strictly_positive
    with pytest.raises(InconsistencyError, match=r"vector of sector M = 1/2 has min entry "
                                                 r"1\.104e-05, within STRICT_POSITIVITY_TOL"):
        certifier(assemble_holstein_sector(model, Fraction(1, 2), 2))


# ---------------------------------------------------------------------------
# the theorem route against the eigenvector route
# ---------------------------------------------------------------------------

#: Relative bound on |min_entry| between the two routes on fixed lattices.
ROUTE_MIN_ENTRY_TOL = 2e-14
#: Bound on |E0| between the two routes, relative to 1 + |E0|: E_P against
#: the sector's own solve.
ROUTE_ENERGY_TOL = 1e-13

TWO_ROUTE_MODELS = {
    **corpus_models(),
    "ring8": LatticeModel(8, generate_lattice("ring", 8, 1.0)),
    "complete6": LatticeModel(6, generate_lattice("complete", 6, 1.0)),
    "complete9": LatticeModel(9, generate_lattice("complete", 9, 1.0)),
    "triangular2x3": LatticeModel(6, generate_lattice("triangular_patch", (2, 3), 1.0)),
    "triangular2x4": LatticeModel(8, generate_lattice("triangular_patch", (2, 4), 1.0)),
}


def _two_routes(model, ms):
    """(H_M, theorem certificate or None, eigenvector certificate) for each
    M of ``ms`` in turn, from one certifier."""
    certifier = SectorCertifier(model)
    for m in ms:
        h = assemble_nagaoka_sector(model, m)
        yield h, certifier.by_theorem(h), eigenvector_certificate(h)


def _assert_routes_agree(theorem, eigen, tol, where):
    assert theorem.basis_tag == eigen.basis_tag == "configuration", where
    floats = {"min_entry": None, "ground_energy": None}
    assert {**vars(theorem), **floats} == {**vars(eigen), **floats}, where
    assert abs(theorem.min_entry - eigen.min_entry) <= tol * eigen.min_entry, where
    energy = eigen.ground_energy
    assert abs(theorem.ground_energy - energy) <= ROUTE_ENERGY_TOL * (1 + abs(energy)), where


@pytest.mark.parametrize("name", sorted(TWO_ROUTE_MODELS))
def test_theorem_route_matches_the_eigenvector_route(name):
    model = TWO_ROUTE_MODELS[name]
    ms = [Fraction(0)] if name == "complete9" else sector_magnetizations(model.sites)
    # ascending M: the walk from -S_max by S+, then restarts from S_max by S-
    for h, theorem, eigen in _two_routes(model, ms):
        where = (name, h.m)
        hypotheses = eigen.offdiag_sign_ok and eigen.irreducible
        assert (theorem is not None) == hypotheses, where
        if theorem is not None:
            _assert_routes_agree(theorem, eigen, ROUTE_MIN_ENTRY_TOL, where)


def test_the_walk_enumerates_only_the_sectors_between_the_top_and_h(monkeypatch):
    import nagaoka.positivity as positivity

    enumerated = []
    real = positivity.enumerate_sector
    monkeypatch.setattr(positivity, "enumerate_sector",
                        lambda model, m: enumerated.append(m) or real(model, m))
    model = TWO_ROUTE_MODELS["complete6"]
    certifier = SectorCertifier(model)
    for m in [Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]:
        h = assemble_nagaoka_sector(model, m)
        assert certifier.by_theorem(h) is not None
        top = Fraction(5, 2) if m > 0 else Fraction(-5, 2)
        assert certifier._walks[top][0] is h.basis          # the walk lands on h.basis
    # 1/2 passes through 3/2; 3/2 restarts from the top's basis; -1/2 passes through -3/2
    assert enumerated == [Fraction(3, 2), Fraction(-3, 2)]


@st.composite
def generated_models(draw):
    """A graph of 2 to 7 sites with hoppings in [0.1, 2], at times site
    potentials and off-site Coulomb terms, and one of its sectors."""
    sites = draw(st.integers(2, 7))
    pairs = [(x, y) for x in range(sites) for y in range(x + 1, sites)]
    bonds = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    t = np.zeros((sites, sites))
    for x, y in bonds:
        t[x, y] = t[y, x] = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        t[np.diag_indices(sites)] = draw(st.lists(st.floats(0.0, 2.0),
                                                  min_size=sites, max_size=sites))
    offsite = None
    if draw(st.booleans()):
        offsite = np.zeros((sites, sites))
        for x, y in pairs:
            offsite[x, y] = offsite[y, x] = draw(st.floats(0.0, 1.0))
    m = draw(st.sampled_from(sector_magnetizations(sites)))
    return LatticeModel(sites, t, offsite_u=offsite), m


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(generated_models())
def test_theorem_route_on_generated_graphs(case):
    # the eigensolve's vector errs by about its residual over the gap, so
    # the bound widens by 1 / gap where the gap is below 1
    model, m = case
    (h, theorem, eigen), = _two_routes(model, [m])
    assert (theorem is not None) == (eigen.offdiag_sign_ok and eigen.irreducible)
    if theorem is not None:
        report = ground_report(h)
        assert report.resolved_s == Fraction(model.sites - 1, 2) and report.degeneracy == 1
        _assert_routes_agree(theorem, eigen, ROUTE_MIN_ENTRY_TOL / min(1.0, report.gap), m)


@pytest.mark.parametrize("broken, message", [
    (lambda low: -low, "has min entry"),                        # an eigenvector, but negative
    (lambda low: low @ sp.diags(np.arange(1.0, low.shape[1] + 1)), "is not an eigenvector"),
], ids=["negated-map", "rescaled-map"])
def test_a_lowered_vector_failing_a_check_is_an_inconsistency(monkeypatch, broken, message):
    import nagaoka.positivity as positivity

    real = positivity.sector_ladder
    monkeypatch.setattr(positivity, "sector_ladder",
                        lambda source, target: broken(real(source, target)))
    h = assemble_nagaoka_sector(complete4(), Fraction(1, 2))
    with pytest.raises(InconsistencyError, match=message):
        SectorCertifier(complete4()).by_theorem(h)
