"""Integration checks beyond the built-in corpus: the maximal-spin
statement on five- and six-site graphs where connectivity holds, and the
designed failure modes where it does not; the full first shell of the
radiation field, and the stored-entry budget at the edge of what runs."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from nagaoka.acceptance import holstein_model
from nagaoka.cli import main
from nagaoka.corpus import complete4
from nagaoka.errors import AmbiguousSpinError, DimensionBudgetError
from nagaoka.hamiltonian import (
    assemble_lang_firsov_sector,
    assemble_nagaoka_projected,
    assemble_nagaoka_sector,
)
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.sector import connectivity_check, sector_magnetizations
from nagaoka.spectral import ground_report


def test_complete_five_site_multiplet():
    model = LatticeModel(5, generate_lattice("complete", 5, 1.0))
    reports = [ground_report(assemble_nagaoka_sector(model, m))
               for m in sector_magnetizations(5)]
    assert all(float(r.resolved_s) == 2.0 for r in reports)
    assert all(r.degeneracy == 1 for r in reports)
    energies = [r.ground_energy for r in reports]
    assert max(energies) - min(energies) <= 1e-10


def test_full_first_shell_line_triangle_every_sector(capsys, tmp_path):
    """kappa = 1.8 admits all 14 modes of the first shell; at cutoff 1 each
    bond phase stores 2^16 entries, far inside the entry budget.  Every
    sector holds the S = 1 triplet alone, at one energy."""
    path = tmp_path / "shell.ini"
    path.write_text("[lattice]\nsites = 3\ngenerator = complete\nextent = 3\nt = 1.0\n"
                    "[coulomb]\nu = inf\n"
                    "[radiation]\nL = 4.0\nkappa = 1.8\nm0 = 1.0\ncutoff = 1\n")
    assert main(["ed", "--all", "--cutoff", "1", "--model", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [row["m"] for row in rows] == ["-1", "0", "1"]
    for row, gap in zip(rows, (1.0, 0.99318335, 1.0)):
        assert row["boson_dimension"] == 2**14
        assert row["resolved_s"] == "1" and row["degeneracy"] == 1
        assert row["gap"] == pytest.approx(gap, abs=1e-6)
        assert row["ground_energy"] == pytest.approx(-1.9931749151960734, abs=1e-10)


def test_lang_firsov_pair_at_cutoff_300_is_refused_by_its_entries(capsys, tmp_path):
    # dimension 2 x 301^2 = 181,202 is within the dimension budget, but in
    # the hole-displaced basis that ed solves, the field energy of each hole
    # site, dense on the hole's mode, would store 301 x 300 x 301 = 27,180,300
    # off-diagonal entries (each hopping phase of the polaron frame itself
    # about 8.2e9)
    path = tmp_path / "pair.ini"
    path.write_text("[lattice]\nsites = 2\n0 1 1.0\n[coulomb]\nu = inf\n"
                    "[phonon]\nomega = 1.0\ncutoff = 2\n0 0 0.5\n1 1 0.5\n")
    start = time.perf_counter()
    code = main(["ed", "--all", "--cutoff", "300", "--form", "langfirsov", "--model", str(path)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: ") and "stored entries" in captured.err


def test_lang_firsov_complete4_at_cutoff_8_is_held_at_its_larger_sector():
    # M = 3/2 stores about 6.4 M entries; M = 1/2 would store 19,289,328
    model = holstein_model(complete4(), 0.5, cutoff=8)
    assert assemble_lang_firsov_sector(model, Fraction(3, 2)).dimension == 4 * 9**4
    with pytest.raises(DimensionBudgetError, match="19289328 stored entries"):
        assemble_lang_firsov_sector(model, Fraction(1, 2))


def test_lang_firsov_ed_at_cutoff_8_solves_the_larger_sector(capsys, tmp_path):
    # ed solves the hole-displaced basis, whose M = 1/2 sector (78,732
    # states) stores under a million entries where the polaron frame would
    # store 19,289,328 and is refused
    path = tmp_path / "holstein4.ini"
    path.write_text("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                    "[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = 2\n"
                    + "".join(f"{x} {x} 0.5\n" for x in range(4)))
    argv = ["ed", "--m", "1/2", "--form", "langfirsov", "--cutoff", "8", "--model", str(path)]
    assert main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["results"]
    assert row["dimension"] == 12 * 9**4
    assert row["resolved_s"] == "3/2" and row["degeneracy"] == 1


def test_even_ring_middle_sectors_split_into_necklace_orbits():
    """Hole hops on a bare ring only generate cyclic shifts of the spin
    word, so mixed-spin sectors fall apart into necklace classes."""
    model = LatticeModel(6, generate_lattice("ring", 6, 1.0))
    rep = connectivity_check(model, Fraction(1, 2))
    assert not rep.connected
    assert sorted(rep.orbit_sizes) == [30, 30]
    # degenerate multiplets mix in the eigensolve; the spin resolver must
    # refuse to report rather than round silently
    with pytest.raises(AmbiguousSpinError):
        ground_report(assemble_nagaoka_sector(model, Fraction(1, 2)))


def test_triangular_patch_2x3_theorem_and_routes():
    model = LatticeModel(6, generate_lattice("triangular_patch", (2, 3), 1.0))
    sectors = sector_magnetizations(6)
    assert all(connectivity_check(model, m).connected for m in sectors)
    energies = []
    for m in sectors:
        direct = assemble_nagaoka_sector(model, m)
        projected = assemble_nagaoka_projected(model, m)
        assert np.max(np.abs(direct.op.toarray() - projected.op.toarray())) <= 1e-12
        rep = ground_report(direct)
        assert float(rep.resolved_s) == 2.5
        assert rep.degeneracy == 1
        energies.append(rep.ground_energy)
    assert max(energies) - min(energies) <= 1e-10


def test_triangular_patch_2x8_certified_at_m_one_half_from_the_polarized_sector(
        capsys, tmp_path, monkeypatch):
    """M = 1/2 of the 16-site patch holds 102,960 configurations and a gap
    of about 0.0038, which an eigensolve resolves slowly.  Nagaoka's theorem
    certifies it from the 16-dimensional polarized sector alone: no solver
    primitive sees a larger matrix."""
    import nagaoka.spectral as spectral

    rows = []

    def spy(real):
        return lambda a, *args, **kwargs: rows.append(a.shape[-1]) or real(a, *args, **kwargs)

    monkeypatch.setattr(spectral.np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(spectral.sla, "eigh", spy(spectral.sla.eigh))
    monkeypatch.setattr(spectral, "_lanczos", spy(spectral._lanczos))
    path = tmp_path / "patch.ini"
    path.write_text("[lattice]\nsites = 16\ngenerator = triangular_patch\nextent = 2x8\n"
                    "t = 1.0\n[coulomb]\nu = inf\n")
    assert main(["certify", "--m", "1/2", "--model", str(path)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["results"]
    assert row["m"] == "1/2" and row["basis"] == "configuration"
    assert all(row[key] is True for key in ("offdiag_sign_ok", "irreducible", "ground_unique",
                                            "ground_strictly_positive"))
    assert row["min_entry"] > 1e-12
    assert rows == [16]


def test_holstein_complete4_at_cutoff_10_concludes_from_the_polarized_sector(
        capsys, tmp_path, monkeypatch):
    """M = 1/2 of the Holstein complete-4 at cutoff 10 holds 175,692 states.
    Nagaoka's theorem gives its ground pair from the 58,564-dimensional
    polarized sector: the M = 1/2 block takes one deflated solve, for its
    gap, and no first solve."""
    import nagaoka.spectral as spectral

    solves = []
    real = spectral._lanczos

    def spy(op, count, tol=0.0, seed=spectral._EIG_SEED):
        vals, vecs = real(op, count, tol, seed)
        solves.append((op.shape[0], tol, float(vals[0])))
        return vals, vecs

    monkeypatch.setattr(spectral, "_lanczos", spy)
    path = tmp_path / "holstein4.ini"
    path.write_text("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                    "[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = 10\n"
                    + "".join(f"{x} {x} 0.5\n" for x in range(4)))
    assert main(["ed", "--m", "1/2", "--form", "holstein", "--model", str(path)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["results"]
    assert row["dimension"] == 175692 and row["boson_dimension"] == 11**4
    assert row["degeneracy"] == 1 and row["resolved_s"] == "3/2"
    assert [(dim, tol) for dim, tol, _ in solves] == [
        (58564, 0.0), (58564, spectral._GUARD_TOL), (175692, spectral._GUARD_TOL)]
    assert row["ground_energy"] == solves[0][2]
    assert row["gap"] == pytest.approx(0.9664821572873, abs=1e-9)
