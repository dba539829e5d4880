"""The polaron frame in its hole-displaced basis, the form ``ed`` solves for
``--form langfirsov``, against ``assemble_lang_firsov_sector``: the
rotation W = sum_i |i><i| (x) V_h(i) taken entrywise, full spectra on seeded
random models, and the ``ed`` rows against ``ground_report`` of the polaron
frame itself."""

import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from nagaoka import spectral
from nagaoka.acceptance import holstein_model
from nagaoka.cli import main
from nagaoka.corpus import complete4, triangle3
from nagaoka.hamiltonian import (
    HOLE_FRAME_FORM,
    assemble_lang_firsov_hole_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_sector,
    assemble_sector,
)
from nagaoka.manybody import _lowering
from nagaoka.model import LatticeModel, PhononBlock
from nagaoka.sector import sector_magnetizations
from nagaoka.spectral import ground_report

# |x_hole - x_frame| <= SPECTRUM_TOL (1 + |x_frame|) for every eigenvalue of
# a dense solve of both matrices (largest measured: 4.9e-14, on eigenvalues
# near 0 of sectors with norm near 13), and <= ROW_TOL (1 + |x_frame|) for
# E0, <S^2> and a dense-routed gap of ``ed`` (largest measured: 2.8e-15)
SPECTRUM_TOL = 1e-13
ROW_TOL = 5e-14

# complete-4 with seeded hoppings in [0.5, 1.5] (tests/test_spectral.py):
# its Lang-Firsov M = 1/2 sector at cutoff 2 has a close excited pair
_SEEDED_COMPLETE4 = {(0, 1): 1.1155107145922238, (0, 2): 1.104311521729088,
                     (0, 3): 1.274519101879528, (1, 2): 1.1063294995345345,
                     (1, 3): 1.251599042656105, (2, 3): 1.071615045732822}


def _symmetric(rng, sites: int, low: float, high: float, zeros: float) -> np.ndarray:
    """A symmetric matrix with entries in [low, high), each upper entry
    zero with probability ``zeros``, and a zero diagonal."""
    values = rng.uniform(low, high, (sites, sites))
    upper = np.triu(values * (rng.random((sites, sites)) >= zeros), 1)
    return upper + upper.T


def _coupling(rng, sites: int, kind: str) -> np.ndarray:
    if kind == "diagonal":
        return rng.uniform(0.2, 0.8) * np.eye(sites)
    if kind == "non-uniform":
        return np.diag(rng.uniform(0.0, 0.8, sites))
    return np.diag(rng.uniform(0.2, 0.8, sites)) + _symmetric(rng, sites, -0.4, 0.4, 0.3)


def _random_model(seed: int, sites: int, kind: str, cutoff: int) -> LatticeModel:
    """A connected infinite-U model with off-site U and a phonon block whose
    coupling is ``kind``: one uniform diagonal, a non-uniform diagonal, or
    with off-diagonal entries of either sign, some of them zero."""
    rng = np.random.default_rng([seed, sites, cutoff])
    t = _symmetric(rng, sites, 0.5, 1.5, 0.3)
    chain = np.arange(sites - 1)
    t[chain, chain + 1] = t[chain + 1, chain] = 1.0            # connected
    return LatticeModel(sites, t, offsite_u=_symmetric(rng, sites, 0.0, 1.0, 0.2),
                        phonon=PhononBlock(coupling=_coupling(rng, sites, kind),
                                           frequency=rng.uniform(0.6, 1.5),
                                           per_site_cutoff=cutoff))


KINDS = ["diagonal", "non-uniform", "off-diagonal"]
RANDOM_CASES = ([(seed, 3, kind, cutoff) for seed in (1, 2) for kind in KINDS
                 for cutoff in (1, 2, 3)]
                + [(seed, 4, kind, cutoff) for seed in (1, 2) for kind in KINDS
                   for cutoff in (1, 2)])


def _hole_rotation(model: LatticeModel, h) -> np.ndarray:
    """W = sum_i |i><i| (x) V_h(i), V_h = (x)_z exp(-lambda_hz (b* - b)),
    from scipy's ``expm`` on each mode."""
    g = model.phonon.coupling / model.phonon.frequency
    generator = _lowering(h.cutoff).T - _lowering(h.cutoff)

    def v(hole):
        out = np.ones((1, 1))
        for z in range(model.sites):
            out = np.kron(out, sla.expm(-g[hole, z] * generator))
        return out

    per_hole = {hole: v(hole) for hole in range(model.sites)}
    return sla.block_diag(*(per_hole[hole] for hole in h.basis.holes.tolist()))


@pytest.mark.parametrize("kind", KINDS)
def test_hole_frame_is_the_rotated_polaron_frame(kind):
    model = _random_model(7, 3, kind, 2)
    for m in sector_magnetizations(3):
        frame = assemble_lang_firsov_sector(model, m)
        hole = assemble_lang_firsov_hole_sector(model, m)
        w = _hole_rotation(model, frame)
        rotated = w.T @ frame.op.toarray() @ w
        assert np.max(np.abs(rotated - hole.op.toarray())) <= 1e-13
        assert hole.op.matrix.dtype == np.float64
        assert hole.dropped_constant == frame.dropped_constant


def test_hole_frame_hops_are_exactly_the_bare_hops():
    # every block between configurations is -t_xy (x) I, as in the Nagaoka form
    model = _random_model(3, 4, "off-diagonal", 2)
    m = Fraction(1, 2)
    hole = assemble_lang_firsov_hole_sector(model, m)
    bare = assemble_nagaoka_sector(LatticeModel(4, model.hopping), m).op.toarray()
    n, nb = hole.basis.dimension, hole.boson.dimension
    blocks = hole.op.toarray().reshape(n, nb, n, nb)
    for i, j in zip(*np.nonzero(~np.eye(n, dtype=bool))):
        assert np.array_equal(blocks[i, :, j, :], bare[i, j] * np.eye(nb))


@pytest.mark.parametrize("seed, sites, kind, cutoff", RANDOM_CASES)
def test_hole_frame_spectra_match_the_polaron_frame(seed, sites, kind, cutoff):
    model = _random_model(seed, sites, kind, cutoff)
    for m in sector_magnetizations(sites):
        want = np.linalg.eigvalsh(assemble_lang_firsov_sector(model, m).op.toarray())
        got = np.linalg.eigvalsh(assemble_lang_firsov_hole_sector(model, m).op.toarray())
        worst = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
        assert worst <= SPECTRUM_TOL, f"M={m}: {worst:.2e}"


def test_hole_frame_stores_seven_times_fewer_entries():
    model = holstein_model(complete4(), 0.5, cutoff=3)
    frame = assemble_lang_firsov_sector(model, Fraction(1, 2))
    hole = assemble_sector(model, HOLE_FRAME_FORM, Fraction(1, 2), 3)
    assert hole.dimension == frame.dimension == 3072
    assert (frame.op.matrix.nnz, hole.op.matrix.nnz) == (150_516, 21_504)


def test_hole_frame_refuses_what_the_frame_refuses():
    finite = LatticeModel(3, triangle3().hopping, onsite_u=4.0,
                          phonon=PhononBlock(coupling=0.5 * np.eye(3), frequency=1.0))
    with pytest.raises(ValueError, match="infinite-U"):
        assemble_lang_firsov_hole_sector(finite, 0)
    with pytest.raises(ValueError, match="polaron-frame assembly needs a phonon block"):
        assemble_lang_firsov_hole_sector(triangle3(), 0)


def _model_file(path, hopping: dict, gamma: float, cutoff: int) -> str:
    rows = "".join(f"{x} {y} {t!r}\n" for (x, y), t in hopping.items())
    couplings = "".join(f"{x} {x} {gamma!r}\n" for x in range(4))
    path.write_text(f"[lattice]\nsites = 4\n{rows}[coulomb]\nu = inf\n"
                    f"[phonon]\nomega = 1.0\ncutoff = {cutoff}\n{couplings}")
    return str(path)


def _ed_rows(capsys, path: str, *argv) -> list[dict]:
    assert main(["ed", *argv, "--form", "langfirsov", "--model", path]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def _same_rows(rows, model, cutoff: int):
    """Each ``ed`` row against ``ground_report`` of the polaron frame: the
    same structural fields, E0 and <S^2> within ROW_TOL, and a gap within
    ROW_TOL where both routes solve densely, else within the deflated
    solve's guarantee _GUARD_TOL |theta|, theta the level above."""
    for row in rows:
        h = assemble_lang_firsov_sector(model, Fraction(row["m"]), cutoff=cutoff)
        want = ground_report(h)
        assert (row["degeneracy"], row["resolved_s"]) == (want.degeneracy, str(want.resolved_s))
        assert (row["dimension"], row["sector_dimension"], row["boson_dimension"],
                row["cutoff"]) == (want.dimension, want.sector_dimension, want.boson_dimension,
                                   want.cutoff)
        for field in ("ground_energy", "stot2_expectation"):
            got, ref = row[field], getattr(want, field)
            assert abs(got - ref) <= ROW_TOL * (1 + abs(ref)), field
        hole = assemble_lang_firsov_hole_sector(model, Fraction(row["m"]), cutoff=cutoff)
        lanczos = spectral.uses_lanczos(h.op.matrix) or spectral.uses_lanczos(hole.op.matrix)
        allowed = (spectral._GUARD_TOL * abs(want.ground_energy + want.gap) if lanczos
                   else ROW_TOL * (1 + want.gap))
        assert abs(row["gap"] - want.gap) <= allowed


@pytest.mark.parametrize("cutoff", [2, 3])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
def test_ed_rows_match_the_polaron_frame_on_the_criterion7_models(capsys, tmp_path, gamma,
                                                                  cutoff):
    hopping = {(x, y): 1.0 for x in range(4) for y in range(x + 1, 4)}
    path = _model_file(tmp_path / "holstein4.ini", hopping, gamma, cutoff)
    rows = _ed_rows(capsys, path, "--all")
    assert [row["m"] for row in rows] == [str(m) for m in sector_magnetizations(4)]
    assert all(row["resolved_s"] == "3/2" and row["degeneracy"] == 1 for row in rows)
    _same_rows(rows, holstein_model(complete4(), gamma, cutoff=cutoff), cutoff)


def test_ed_rows_match_the_polaron_frame_on_the_clustered_sector(capsys, tmp_path):
    path = _model_file(tmp_path / "seeded4.ini", _SEEDED_COMPLETE4, 0.5, 2)
    rows = _ed_rows(capsys, path, "--m", "1/2")
    t = np.zeros((4, 4))
    for (x, y), value in _SEEDED_COMPLETE4.items():
        t[x, y] = t[y, x] = value
    _same_rows(rows, holstein_model(LatticeModel(4, t), 0.5), 2)
