"""The +-1 gauges the sector forms state, against a gauge search.

``gauge_oracle.balance_gauge`` two-colours the signed graph of a matrix by
breadth-first search; it is checked against all 2^n gauges on small
generated graphs, and then finds the Holstein form's stated gauge (up to
the sign of each block) on criterion 7's sectors and no gauge at all on
the polaron frame.  A wrong stated gauge must fail the sign test, so it can
only ever send a sector to the eigenvector route."""

import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge_oracle import balance_gauge, brute_force_gauges
from nagaoka import hamiltonian
from nagaoka.acceptance import holstein_model, radiation_triangle
from nagaoka.cli import main
from nagaoka.corpus import complete4, pair2
from nagaoka.hamiltonian import (
    assemble_holstein_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
)
from nagaoka.model import LatticeModel, PhononBlock
from nagaoka.positivity import STRICT_POSITIVITY_TOL, SectorCertifier, eigenvector_certificate
from nagaoka.sector import sector_magnetizations
from nagaoka.spectral import sign_structure

CRITERION_7 = [(gamma, cutoff) for gamma in (0.25, 0.5, 1.0) for cutoff in (2, 3)]


@st.composite
def signed_graphs(draw):
    """A symmetric real matrix of 1 to 8 vertices: each pair an edge of
    either sign, a stored zero or no entry, and any diagonal."""
    n = draw(st.integers(1, 8))
    dense = np.diag(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    stored = np.eye(n, dtype=bool)
    for x in range(n):
        for y in range(x + 1, n):
            kind = draw(st.sampled_from(["none", "zero", "plus", "minus"]))
            if kind != "none":
                value = {"zero": 0.0, "plus": 1.0, "minus": -1.0}[kind] * draw(st.floats(0.1, 2.0))
                dense[x, y] = dense[y, x] = value
                stored[x, y] = stored[y, x] = True
    rows, cols = np.nonzero(stored)
    return sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(n, n)), dense


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(signed_graphs())
def test_gauge_search_matches_brute_force(case):
    mat, dense = case
    gauge, frustrated = balance_gauge(mat)
    gauges = brute_force_gauges(dense)
    assert (gauge is not None) == bool(gauges)
    if gauge is None:
        i, j = frustrated
        assert i != j and mat[i, j] != 0
        return
    assert any(np.array_equal(gauge, s) for s in gauges)
    _, sizes, re_max, _ = sign_structure(mat, gauge)
    assert np.all(re_max <= 0)
    # a connected graph has exactly the found gauge and its negative
    if sizes.size == 1:
        assert len(gauges) == 2


def test_gauge_search_refuses_an_imaginary_coupling():
    mat = sp.csr_matrix(np.array([[0.0, 1j], [-1j, 0.0]]))
    assert balance_gauge(mat) == (None, (0, 1))


@pytest.mark.parametrize("gamma, cutoff", CRITERION_7)
def test_the_search_finds_the_holstein_gauge_on_criterion_7(gamma, cutoff):
    model = holstein_model(complete4(), gamma)
    for m in sector_magnetizations(4):
        h = assemble_holstein_sector(model, m, cutoff)
        found, frustrated = balance_gauge(h.op.matrix)
        assert frustrated is None and h.gauge is not None
        assert np.array_equal(found, h.gauge) or np.array_equal(found, -h.gauge)
        _, sizes, re_max, im_max = sign_structure(h.op.matrix, h.gauge)
        assert sizes.size == 1 and re_max[0] < 0 and im_max[0] == 0
        # the raw signs fail: the coupling puts positive entries off the diagonal
        assert sign_structure(h.op.matrix)[2][0] > 0


def test_the_lang_firsov_frame_is_frustrated():
    model = holstein_model(complete4(), 0.5)
    h = assemble_lang_firsov_sector(model, Fraction(1, 2), cutoff=2)
    assert h.gauge is None
    gauge, (i, j) = balance_gauge(h.op.matrix)
    assert gauge is None and i != j and h.op.matrix[i, j] != 0


def test_forms_without_positive_couplings_state_the_identity():
    negative = holstein_model(complete4(), -0.5)
    assert assemble_holstein_sector(negative, Fraction(1, 2), 2).gauge is None
    assert sign_structure(assemble_holstein_sector(negative, Fraction(1, 2), 2).op.matrix)[2][0] < 0
    positive = holstein_model(complete4(), 0.5)
    assert assemble_holstein_sector(positive, Fraction(1, 2), 0).gauge is None
    assert assemble_nagaoka_sector(complete4(), Fraction(1, 2)).gauge is None
    assert assemble_radiation_sector(radiation_triangle(1.0), 0, cutoff=2).gauge is None


def test_only_positively_coupled_modes_change_sign():
    # site 0 couples to mode 0 with g > 0, site 1 to mode 1 with g < 0:
    # the gauge is (-1)^{n_0}, mode 0 being the most significant digit
    base = pair2()
    model = LatticeModel(2, base.hopping, phonon=PhononBlock(
        coupling=np.diag([0.5, -0.5]), frequency=1.0, per_site_cutoff=2))
    h = assemble_holstein_sector(model, Fraction(1, 2), 2)
    n0 = np.repeat(np.arange(3), 3)
    assert np.array_equal(h.gauge, np.tile((-1) ** n0, h.basis.dimension))
    found, _ = balance_gauge(h.op.matrix)
    assert np.array_equal(found, h.gauge) or np.array_equal(found, -h.gauge)


def _wrong_gauge(monkeypatch):
    """Make the Holstein form state the gauge of a different mode set:
    (-1)^{n_0} alone, where all four modes couple positively."""
    def wrong(phonon, basis, bosons):
        levels = bosons.cutoff + 1
        signs = (-1) ** np.repeat(np.arange(levels), levels ** (bosons.modes - 1))
        return np.tile(signs.astype(np.int8), basis.dimension)

    monkeypatch.setattr(hamiltonian, "boson_parity_gauge", wrong)


def test_a_wrong_gauge_fails_the_sign_test_and_never_certifies(monkeypatch):
    _wrong_gauge(monkeypatch)
    model = holstein_model(complete4(), 0.5)
    certifier = SectorCertifier(model, "holstein", 2)
    for m in (Fraction(3, 2), Fraction(1, 2)):
        h = assemble_holstein_sector(model, m, 2)
        assert sign_structure(h.op.matrix, h.gauge)[2][0] > STRICT_POSITIVITY_TOL
        assert certifier.by_theorem(h) is None
        cert = certifier(h)
        assert not cert.offdiag_sign_ok and not cert.ground_strictly_positive
        assert cert == eigenvector_certificate(h)
        assert certifier.report(h) is None or h.m == Fraction(3, 2)


def test_a_wrong_gauge_sends_ed_and_certify_to_the_eigensolve_routes(capsys, tmp_path,
                                                                     monkeypatch):
    import nagaoka.positivity as positivity

    path = tmp_path / "holstein4.ini"
    path.write_text("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                    "[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = 3\n"
                    + "".join(f"{x} {x} 0.5\n" for x in range(4)))
    argv = ["--all", "--form", "holstein", "--model", str(path)]
    assert main(["ed", *argv]) == 0
    right = json.loads(capsys.readouterr().out)["results"]
    _wrong_gauge(monkeypatch)
    starts = []
    real = positivity.lowered_report
    monkeypatch.setattr(positivity, "lowered_report",
                        lambda *args: starts.append(args) or real(*args))
    assert main(["certify", *argv]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert all(not row["offdiag_sign_ok"] and not row["ground_strictly_positive"] for row in rows)
    assert main(["ed", *argv]) == 0
    wrong = json.loads(capsys.readouterr().out)["results"]
    assert starts == []
    for a, b in zip(right, wrong):
        assert a["degeneracy"] == b["degeneracy"] == 1 and a["resolved_s"] == b["resolved_s"]
        assert abs(a["ground_energy"] - b["ground_energy"]) <= 5e-14 * (1 + abs(a["ground_energy"]))
