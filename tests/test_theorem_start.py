"""``ed`` by Nagaoka's theorem on the Holstein form, against the eigensolve.

Where the theorem holds on a block that the solver policy sends to
Lanczos, ``SectorCertifier.report`` replaces the first solve with the
lowered polarized ground pair, and one deflated solve gives the gap.  The
oracle is ``ground_report``, the route criterion 7 keeps.  The bounds are
those stated in CHANGES.md: E0, gap and <S^2> within
``ROUTE_TOL`` (1 + |x|) (observed 5.2e-15 on criterion 7's models), and
certificate ``min_entry`` within ``MIN_ENTRY_TOL`` absolute (observed
4.4e-17, on entries down to 8.6e-12)."""

import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from nagaoka.acceptance import holstein_model
from nagaoka.cli import main
from nagaoka.corpus import complete4
from nagaoka.errors import InconsistencyError
from nagaoka.hamiltonian import assemble_holstein_sector
from nagaoka.positivity import SectorCertifier, eigenvector_certificate
from nagaoka.spectral import ground_report

ROUTE_TOL = 5e-14
MIN_ENTRY_TOL = 1e-15
CRITERION_7 = [(gamma, cutoff) for gamma in (0.25, 0.5, 1.0) for cutoff in (2, 3)]
# descending |M|, the order ``_sector_jobs`` meets them in, then a lone M < 0
SECTORS = [Fraction(3, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2)]


def _holstein_file(tmp_path, gamma=0.5, cutoff=2):
    path = tmp_path / "holstein4.ini"
    path.write_text("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                    f"[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = {cutoff}\n"
                    + "".join(f"{x} {x} {gamma}\n" for x in range(4)))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("gamma, cutoff", CRITERION_7)
def test_theorem_start_matches_ground_report_on_criterion_7(gamma, cutoff, monkeypatch):
    import nagaoka.positivity as positivity

    starts = []
    real = positivity.lowered_report
    monkeypatch.setattr(positivity, "lowered_report",
                        lambda h, *args: starts.append(h.m) or real(h, *args))
    model = holstein_model(complete4(), gamma)
    certifier = SectorCertifier(model, "holstein", cutoff)
    for m in SECTORS:
        h = assemble_holstein_sector(model, m, cutoff)
        theorem, oracle = certifier.report(h), ground_report(h)
        assert theorem is not None
        assert theorem.degeneracy == oracle.degeneracy == 1
        assert theorem.resolved_s == oracle.resolved_s == Fraction(3, 2)
        for key in ("ground_energy", "gap", "stot2_expectation"):
            x, y = getattr(theorem, key), getattr(oracle, key)
            assert abs(x - y) <= ROUTE_TOL * (1 + abs(y)), (m, key)
        if abs(m) == Fraction(3, 2):
            assert theorem == oracle           # the polarized sector's own solve
    # every M = +-1/2 block is Lanczos-routed at cutoffs 2 and 3
    assert starts == [Fraction(1, 2), Fraction(-1, 2)]


@pytest.mark.parametrize("gamma, cutoff", CRITERION_7)
def test_holstein_certificates_match_the_eigenvector_route(gamma, cutoff):
    model = holstein_model(complete4(), gamma)
    certifier = SectorCertifier(model, "holstein", cutoff)
    for m in SECTORS:
        h = assemble_holstein_sector(model, m, cutoff)
        theorem, eigen = certifier.by_theorem(h), eigenvector_certificate(h)
        assert theorem is not None and theorem.basis_tag == "configuration x boson (gauged)"
        floats = {"min_entry": None, "ground_energy": None}
        assert {**vars(theorem), **floats} == {**vars(eigen), **floats}
        assert eigen.ground_strictly_positive
        assert abs(theorem.min_entry - eigen.min_entry) <= MIN_ENTRY_TOL, m
        energy = eigen.ground_energy
        assert abs(theorem.ground_energy - energy) <= ROUTE_TOL * (1 + abs(energy)), m


@pytest.mark.parametrize("cutoff", [2, 3])
def test_every_row_of_ed_all_carries_the_polarized_energy(capsys, tmp_path, cutoff):
    path = _holstein_file(tmp_path, cutoff=cutoff)
    code, out, _ = _run(capsys, "ed", "--all", "--form", "holstein", "--model", path)
    assert code == 0
    rows = json.loads(out)["results"]
    assert len({row["ground_energy"].hex() for row in rows}) == 1
    assert all(row["degeneracy"] == 1 and row["resolved_s"] == "3/2" for row in rows)



@pytest.mark.parametrize("argv, polarized_dimension", [
    (("ed", "--all", "--form", "holstein", "--cutoff", "2"), 4 * 3 ** 4),
    (("ed", "--all", "--form", "holstein", "--cutoff", "3"), 4 * 4 ** 4),
    (("certify", "--all", "--form", "holstein", "--cutoff", "3"), 4 * 4 ** 4),
], ids=["ed-cutoff-2", "ed-cutoff-3", "certify-cutoff-3"])
def test_one_polarized_solve_per_command(capsys, tmp_path, monkeypatch, argv,
                                         polarized_dimension):
    # the polarized sector comes first in --all, so it is the certifier's
    # H_P as given, never assembled again, and its one ground_cluster is
    # the only one: every other sector is lowered from it
    import nagaoka.positivity as positivity
    import nagaoka.spectral as spectral

    assembled, solved = [], []
    real_assemble, real_cluster = positivity.assemble_sector, spectral.ground_cluster
    monkeypatch.setattr(positivity, "assemble_sector",
                        lambda *args: assembled.append(args) or real_assemble(*args))
    for module in (positivity, spectral):
        monkeypatch.setattr(module, "ground_cluster",
                            lambda mat: solved.append(mat.shape[0]) or real_cluster(mat))
    code, out, _ = _run(capsys, *argv, "--model", _holstein_file(tmp_path))
    assert code == 0 and len(json.loads(out)["results"]) == 4
    assert assembled == [] and solved == [polarized_dimension]

@pytest.mark.parametrize("cutoff", [2, 3])
def test_single_sectors_are_byte_identical_to_their_rows_of_ed_all(capsys, tmp_path, cutoff):
    # ed --m 1/2 assembles and solves the polarized sector itself
    path = _holstein_file(tmp_path, cutoff=cutoff)
    code, every, _ = _run(capsys, "ed", "--all", "--form", "holstein", "--model", path)
    assert code == 0
    rows = {row["m"]: row for row in json.loads(every)["results"]}
    for m in ("1/2", "3/2"):
        code, alone, _ = _run(capsys, "ed", "--m", m, "--form", "holstein", "--model", path)
        assert code == 0
        assert json.dumps(json.loads(alone)["results"]) == json.dumps([rows[m]])


def test_a_lowered_vector_failing_the_residual_check_exits_2(capsys, tmp_path, monkeypatch):
    import nagaoka.positivity as positivity

    real = positivity.sector_ladder
    monkeypatch.setattr(positivity, "sector_ladder", lambda source, target:
                        sp.diags(np.arange(1.0, target.dimension + 1)) @ real(source, target))
    code, out, err = _run(capsys, "ed", "--m", "1/2", "--form", "holstein",
                          "--model", _holstein_file(tmp_path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("numerical failure: the lowered polarized ground vector is not an "
                          "eigenvector of sector M = 1/2")


def test_a_deflated_value_inside_the_cluster_exits_2(capsys, tmp_path, monkeypatch):
    # the deflated solve reports the ground level again, as if the theorem's
    # simple level had a copy
    import nagaoka.spectral as spectral

    path = _holstein_file(tmp_path)
    code, out, _ = _run(capsys, "ed", "--m", "3/2", "--form", "holstein", "--model", path)
    e_top = json.loads(out)["results"][0]["ground_energy"]
    real = spectral._lanczos

    def copy_found(op, count, tol=0.0, seed=spectral._EIG_SEED):
        vals, vecs = real(op, count, tol, seed)
        return (np.full_like(vals, e_top + 1e-12), vecs) if tol else (vals, vecs)

    monkeypatch.setattr(spectral, "_lanczos", copy_found)
    code, out, err = _run(capsys, "ed", "--m", "1/2", "--form", "holstein", "--model", path)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "lies within the cluster tolerance of the ground level" in err
    with pytest.raises(InconsistencyError):
        model = holstein_model(complete4(), 0.5)
        SectorCertifier(model, "holstein", 2).report(
            assemble_holstein_sector(model, Fraction(1, 2), 2))


def test_certify_takes_the_form_and_cutoff_of_ed(capsys, tmp_path):
    path = _holstein_file(tmp_path)
    code, out, _ = _run(capsys, "certify", "--all", "--model", path)
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["m"] for row in rows] == ["-3/2", "-1/2", "1/2", "3/2"]
    assert all(row["basis"] == "configuration x boson (gauged)" and row["ground_unique"]
               and row["ground_strictly_positive"] for row in rows)
    code, out, _ = _run(capsys, "certify", "--all", "--form", "holstein", "--cutoff", "2",
                        "--model", path)
    assert code == 0 and json.loads(out)["results"] == rows
    code, out, _ = _run(capsys, "certify", "--m", "1/2", "--form", "nagaoka", "--model", path)
    assert code == 0 and json.loads(out)["results"][0]["basis"] == "configuration"
    code, out, _ = _run(capsys, "certify", "--m", "1/2", "--form", "langfirsov", "--model", path)
    (row,) = json.loads(out)["results"]
    assert code == 0 and not row["offdiag_sign_ok"] and not row["ground_strictly_positive"]


@pytest.mark.parametrize("cutoff, code", [(4, 0), (5, 2)])
def test_strict_positivity_below_float_resolution_names_the_tolerance(capsys, tmp_path,
                                                                      cutoff, code):
    # the polarized ground level is simple and passes its residual check at
    # both cutoffs; at cutoff 5 its min entry (3.5e-14) is below the tolerance
    argv = ("certify", "--m", "3/2", "--form", "holstein", "--cutoff", str(cutoff))
    got, out, err = _run(capsys, *argv, "--model", _holstein_file(tmp_path))
    assert got == code
    if code:
        assert out == "" and "is simple, but strict positivity fails at its min entry 3.520e-14, " \
                             "within STRICT_POSITIVITY_TOL = 1e-12 of 0" in err
        assert "cannot be trusted" not in err


def test_certify_all_qgrid_solves_the_polarized_grid_once(capsys, tmp_path, monkeypatch):
    # the Holstein triangle's grid: M = 1 is solved, -1 is its verified spin
    # flip, and M = 0 (twice the size) is lowered from M = 1, never solved
    import nagaoka.cli as cli
    import nagaoka.positivity as positivity
    import nagaoka.spectral as spectral

    solved, flips = [], []
    real_cluster, real_flip = spectral.ground_cluster, cli.verified_spin_flip
    for module in (positivity, spectral):
        monkeypatch.setattr(module, "ground_cluster",
                            lambda mat: solved.append(mat.shape[0]) or real_cluster(mat))
    monkeypatch.setattr(cli, "verified_spin_flip",
                        lambda h, flip: flips.append((h.m, flip.m)) or real_flip(h, flip))
    path = tmp_path / "triangle.ini"
    path.write_text("[lattice]\nsites = 3\ngenerator = complete\nextent = 3\nt = 1.0\n"
                    "[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = 2\n"
                    + "".join(f"{x} {x} 0.5\n" for x in range(3)))
    spacing = float(np.sqrt(2.0) * 0.5 / 2)
    code, out, _ = _run(capsys, "certify", "--all", "--qgrid", "16", "--spacing", repr(spacing),
                        "--model", str(path))
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["m"] for row in rows] == ["-1", "0", "1"]
    assert all(row["basis"] == "configuration x grid" and row["ground_strictly_positive"]
               and row["points"] == 16 and row["spacing"] == spacing for row in rows)
    assert len({row["ground_energy"].hex() for row in rows}) == 1      # E_P in every row
    assert solved == [3 * 16 ** 3] and flips == [(1, -1)]


@pytest.mark.parametrize("extra, option", [(("--form", "holstein"), "--form"),
                                           (("--cutoff", "2"), "--cutoff")])
def test_certify_refuses_form_and_cutoff_with_qgrid(capsys, tmp_path, extra, option):
    code, out, err = _run(capsys, "certify", "--m", "1/2", "--qgrid", "8", "--spacing", "0.5",
                          *extra, "--model", _holstein_file(tmp_path))
    assert code == 1 and out == "" and f"{option} does not apply to --qgrid" in err


def test_certify_refuses_a_cutoff_on_the_nagaoka_form(capsys, tmp_path):
    code, out, err = _run(capsys, "certify", "--m", "1/2", "--form", "nagaoka", "--cutoff", "2",
                          "--model", _holstein_file(tmp_path))
    assert code == 1 and out == "" and "--cutoff does not apply to the nagaoka form" in err
