"""Total spin read off one ladder map against the sector S^2 oracle.

Production evaluates V*S^2V on the ground cluster V as |M|(|M| + 1) I +
(AV)*(AV), with A the ladder map out of M away from M = 0; the oracle in
``spin_oracle`` builds the whole sector S^2 from both neighbour sectors
(Kronecker-multiplied by the boson identity) and takes V*S^2V directly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from nagaoka import spectral
from nagaoka.acceptance import holstein_model, radiation_triangle, transverse_mode_subset
from nagaoka.corpus import complete4, corpus_models
from nagaoka.errors import AmbiguousSpinError
from nagaoka.hamiltonian import (
    assemble_holstein_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
)
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.sector import enumerate_sector, sector_magnetizations
from nagaoka.spectral import ground_report, resolve_total_spin
from spin_oracle import cluster_spin_levels
from test_spin_inversion import generated_models


def assert_ladder_spin_matches_oracle(h):
    """Same S, and <S^2> within 1e-12 (1 + S(S+1)) of every eigenvalue of
    the oracle's V*S^2V; a cluster of several spins is refused by both."""
    levels = cluster_spin_levels(h)
    content = sorted({resolve_total_spin(float(x)) for x in levels})
    if len(content) > 1:
        with pytest.raises(AmbiguousSpinError, match=f"S = {', '.join(map(str, content))};"):
            ground_report(h)
        return
    rep = ground_report(h)
    (s,) = content
    assert rep.resolved_s == s, (h.m, rep.resolved_s, s)
    bound = 1e-12 * (1.0 + float(s * (s + 1)))
    assert np.max(np.abs(levels - rep.stot2_expectation)) <= bound, (h.m, levels)


def _bare_models():
    models = dict(corpus_models())
    models["complete6"] = LatticeModel(6, generate_lattice("complete", 6, 1.0))
    models["triangular2x4"] = LatticeModel(8, generate_lattice("triangular_patch", (2, 4), 1.0))
    return models


@pytest.mark.parametrize("name", sorted(_bare_models()))
def test_ladder_spin_matches_the_oracle_on_bare_sectors(name):
    model = _bare_models()[name]
    for m in sector_magnetizations(model.sites):
        assert_ladder_spin_matches_oracle(assemble_nagaoka_sector(model, m))


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("assemble", [assemble_holstein_sector, assemble_lang_firsov_sector])
@pytest.mark.parametrize("cutoff", [2, 3])
def test_ladder_spin_matches_the_oracle_on_criterion_7_sectors(gamma, assemble, cutoff):
    model = holstein_model(complete4(), gamma)
    for m in sector_magnetizations(4):
        assert_ladder_spin_matches_oracle(assemble(model, m, cutoff=cutoff))


def test_ladder_spin_matches_the_oracle_on_complex_radiation_sectors():
    coupled = radiation_triangle(kappa=1.8)
    modes = transverse_mode_subset(coupled)
    for m in sector_magnetizations(3):
        h = assemble_radiation_sector(coupled, m, cutoff=2, modes=modes)
        assert h.op.matrix.dtype == np.complex128
        assert_ladder_spin_matches_oracle(h)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(generated_models())
def test_ladder_spin_matches_the_oracle_on_generated_graphs(model):
    forms = [assemble_nagaoka_sector]
    if model.phonon is not None:
        forms += [assemble_holstein_sector, assemble_lang_firsov_sector]
    for assemble in forms:
        for m in sector_magnetizations(model.sites):
            assert_ladder_spin_matches_oracle(assemble(model, m))


def _recorded_ladders(monkeypatch):
    shapes = []
    real = spectral._spin_ladder

    def recording(h):
        ladder = real(h)
        shapes.append(None if ladder is None else ladder.shape)
        return ladder

    monkeypatch.setattr(spectral, "_spin_ladder", recording)
    return shapes


def test_each_sector_maps_away_from_zero_and_end_sectors_need_no_map(monkeypatch):
    shapes = _recorded_ladders(monkeypatch)
    model = complete4()
    dims = {m: enumerate_sector(model, m).dimension for m in sector_magnetizations(4)}
    sectors = [assemble_nagaoka_sector(model, m) for m in sector_magnetizations(4)]
    enumerated = []
    real = spectral.enumerate_sector
    monkeypatch.setattr(spectral, "enumerate_sector",
                        lambda model, m: enumerated.append(m) or real(model, m))
    reports = [ground_report(h) for h in sectors]
    half, top = Fraction(1, 2), Fraction(3, 2)
    # S- from -1/2 into -3/2, S+ from 1/2 into 3/2: both into a smaller sector
    assert shapes == [None, (dims[-top], dims[-half]), (dims[top], dims[half]), None]
    assert enumerated == [-top, top]         # the target only; the source is h.basis
    assert [rep.resolved_s for rep in reports] == [top] * 4
    assert reports[0].stot2_expectation == reports[-1].stot2_expectation == 3.75


def test_negative_sector_names_a_mixed_cluster_through_the_lowering_map(monkeypatch):
    shapes = _recorded_ladders(monkeypatch)
    ring6 = LatticeModel(6, generate_lattice("ring", 6, 1.0))
    m = Fraction(-1, 2)
    with pytest.raises(AmbiguousSpinError, match=r"S = 1/2, 5/2;"):
        ground_report(assemble_nagaoka_sector(ring6, m))
    assert shapes == [(enumerate_sector(ring6, m - 1).dimension,
                       enumerate_sector(ring6, m).dimension)]
