import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nagaoka
from nagaoka.cli import main
from nagaoka.model import generate_lattice

TRIANGLE = """
[lattice]
sites = 3
generator = complete
extent = 3
t = 1.0
[coulomb]
u = inf
"""

HOLSTEIN_PAIR = """
[lattice]
sites = 2
0 1 1.0
[coulomb]
u = inf
[phonon]
omega = 1.0
cutoff = 2
0 0 0.5
1 1 0.5
"""


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.ini"
    path.write_text(TRIANGLE)
    return str(path)


RADIATION_TRIANGLE = """
[lattice]
sites = 3
generator = complete
extent = 3
t = 1.0
[coulomb]
u = inf
[radiation]
L = 4.0
kappa = 1.0
m0 = 1.0
cutoff = 2
"""


@pytest.fixture
def holstein_file(tmp_path):
    path = tmp_path / "holstein.ini"
    path.write_text(HOLSTEIN_PAIR)
    return str(path)


@pytest.fixture
def radiation_file(tmp_path):
    path = tmp_path / "radiation.ini"
    path.write_text(RADIATION_TRIANGLE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_reports_dimension(capsys, triangle_file):
    code, out = run(capsys, "basis", "--model", triangle_file, "--m", "1", "--list")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["dimension"] == 3
    assert len(payload["results"][0]["configs"]) == 3
    assert payload["model_digest"]


def test_connectivity_json_schema(capsys, triangle_file):
    code, out = run(capsys, "connectivity", "--model", triangle_file, "--all")
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["m"] for row in rows] == ["-1", "0", "1"]
    assert all(row["connected"] for row in rows)
    assert all(sum(row["orbit_sizes"]) == row["dimension"] for row in rows)


def test_byte_identical_reruns(capsys, triangle_file):
    _, first = run(capsys, "ed", "--model", triangle_file, "--all")
    _, second = run(capsys, "ed", "--model", triangle_file, "--all")
    assert first == second


def _subprocess_env(**extra) -> dict:
    """The environment of a child process that imports this checkout's package."""
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([str(Path(nagaoka.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")])}


# a float of a report may move by this much, relative to max(1, |value|), when
# only the BLAS thread count changes; 1.8e-15 is the largest move measured
BLAS_THREADS_TOL = 1e-12


def _ed_all(paths, threads: int) -> str:
    """stdout of one process that runs ``ed --all`` on each model in turn."""
    code = ("import sys\nfrom nagaoka.cli import main\n"
            "for path in sys.argv[1:]:\n    main(['ed', '--all', '--model', path])\n")
    return subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True,
                          check=True, timeout=300,
                          env=_subprocess_env(OPENBLAS_NUM_THREADS=str(threads))).stdout


def _payloads(out: str) -> list:
    decoder, payloads, at = json.JSONDecoder(), [], 0
    while at < len(out):
        payload, at = decoder.raw_decode(out, at)
        payloads.append(payload)
        at += 1                         # the newline after each payload
    return payloads


def _assert_close(a, b, where=""):
    if isinstance(a, float) and isinstance(b, float):
        assert abs(a - b) <= BLAS_THREADS_TOL * max(1.0, abs(a)), (where, a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    else:
        assert a == b, (where, a, b)


def test_ed_reports_agree_across_blas_thread_counts(tmp_path):
    # dense-routed sectors of these models change in the last bits with the
    # OpenBLAS thread count; at any one count reruns stay byte-identical
    paths = []
    for name, generator, extent, sites in (("complete9", "complete", "9", 9),
                                           ("tri2x4", "triangular_patch", "2x4", 8)):
        paths.append(tmp_path / f"{name}.ini")
        paths[-1].write_text(f"[lattice]\nsites = {sites}\ngenerator = {generator}\n"
                             f"extent = {extent}\nt = 1.0\n[coulomb]\nu = inf\n")
    runs = {threads: [_ed_all(paths, threads) for _ in range(2)] for threads in (1, 2)}
    for threads, (first, second) in runs.items():
        assert first == second, threads
    one, two = _payloads(runs[1][0]), _payloads(runs[2][0])
    assert len(one) == len(two) == len(paths)
    for a, b in zip(one, two):
        _assert_close(a, b, a["command"])


def test_ed_rows_sorted_and_spin_resolved(capsys, holstein_file):
    code, out = run(capsys, "ed", "--model", holstein_file, "--all", "--cutoff", "2")
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["m"] for row in rows] == ["-1/2", "1/2"]
    assert all(row["resolved_s"] == "1/2" for row in rows)
    assert all(row["boson_dimension"] == 9 for row in rows)


def test_ed_jobs_parallel_matches_serial(capsys, triangle_file):
    _, serial = run(capsys, "ed", "--model", triangle_file, "--all")
    _, parallel = run(capsys, "ed", "--model", triangle_file, "--all", "--jobs", "2")
    assert json.loads(serial)["results"] == json.loads(parallel)["results"]


def test_spin_table(capsys, triangle_file):
    code, out = run(capsys, "spin", "--model", triangle_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4                      # header plus one row per sector
    assert lines[0].split() == ["M", "dim", "E0", "deg", "gap", "S"]


def test_assemble_triplets(capsys, triangle_file):
    code, out = run(capsys, "assemble", "--model", triangle_file,
                    "--form", "nagaoka", "--m", "0")
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["form"] == "nagaoka"
    assert header["dimension"] == 6
    rows, cols, nnz = map(int, lines[1].split())
    assert (rows, cols) == (6, 6)
    assert nnz == len(lines) - 2
    # rebuild and check hermiticity of the emitted triplets
    mat = np.zeros((rows, cols), dtype=complex)
    for line in lines[2:]:
        i, j, re, im = line.split()
        mat[int(i) - 1, int(j) - 1] = float(re) + 1j * float(im)
    assert np.max(np.abs(mat - mat.conj().T)) == 0.0


def _export_oracle(mat) -> list[str]:
    """The triplet lines as the per-entry loop wrote them."""
    coo = mat.tocoo()
    lines = []
    for idx in np.lexsort((coo.col, coo.row)):
        value = complex(coo.data[idx])
        lines.append(f"{coo.row[idx] + 1} {coo.col[idx] + 1} {value.real!r} {value.imag!r}")
    return lines


def test_assemble_export_matches_per_entry_loop(capsys, tmp_path, radiation_file, monkeypatch):
    import nagaoka.cli as cli
    from nagaoka.acceptance import holstein_model, radiation_triangle, transverse_mode_subset
    from nagaoka.corpus import complete4
    from nagaoka.hamiltonian import assemble_lang_firsov_sector, assemble_radiation_sector

    # a real form: the benchmark's Lang-Firsov export (complete-4, M = 1/2, cutoff 2)
    path = tmp_path / "holstein4.ini"
    path.write_text("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                    "[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = 2\n"
                    + "".join(f"{x} {x} 0.5\n" for x in range(4)))
    code, out = run(capsys, "assemble", "--model", str(path), "--form", "langfirsov",
                    "--m", "1/2", "--cutoff", "2")
    assert code == 0
    mat = assemble_lang_firsov_sector(holstein_model(complete4(), 0.5), Fraction(1, 2),
                                      cutoff=2).op.matrix
    lines = out.splitlines()[2:]
    assert lines == _export_oracle(mat) and len(lines) == mat.nnz == 27204
    assert {line.split()[3] for line in lines} == {"0.0"}

    # a complex form: the coupled transverse-subset radiation sector
    coupled = radiation_triangle(kappa=1.8)
    h = assemble_radiation_sector(coupled, 0, cutoff=2, modes=transverse_mode_subset(coupled))
    assert h.op.matrix.dtype == np.complex128
    monkeypatch.setattr(cli, "assemble_sector", lambda *args: h)
    code, out = run(capsys, "assemble", "--model", radiation_file, "--form", "radiation", "--m", "0")
    assert code == 0
    assert out.splitlines()[2:] == _export_oracle(h.op.matrix)


def test_assemble_export_tables_keep_every_bit_pattern(capsys, radiation_file, monkeypatch):
    import nagaoka.cli as cli

    # the export formats each distinct float once: the keys are bit patterns,
    # so -0.0 and 0.0, and neighbours one ulp apart, must stay apart
    one_up = np.nextafter(1.0, 2.0)
    real = [0.0, -0.0, 1.0, one_up, 5e-324, 1e-300, 1e22, -0.0, 1.0, -1e22, 0.0, one_up]
    imag = [-0.0, 0.0, -0.0, 1e22, 0.0, one_up, 1.0, 5e-324, -1e-300, 0.0, -0.0, 1.0]
    rows = [0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    cols = [0, 11, 3, 7, 2, 10, 4, 1, 6, 0, 8, 11]
    data = np.empty(len(real), dtype=complex)
    data.real, data.imag = real, imag        # real + 1j * imag would lose the -0.0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=12))])
    mat = sp.csr_matrix((data, cols, indptr), shape=(12, 12))
    assert np.signbit(mat.data.real).tolist().count(True) == 3
    assert np.signbit(mat.data.imag).tolist().count(True) == 4
    h = SimpleNamespace(m=Fraction(0), provenance="test", dropped_constant=0.0, cutoff=None,
                        op=SimpleNamespace(matrix=mat, dimension=12, shape=mat.shape))
    monkeypatch.setattr(cli, "assemble_sector", lambda *args: h)
    code, out = run(capsys, "assemble", "--model", radiation_file, "--form", "radiation", "--m", "0")
    assert code == 0
    lines = out.splitlines()[2:]
    assert lines == _export_oracle(mat)
    assert [line.split()[2:] for line in lines[:2]] == [["0.0", "-0.0"], ["-0.0", "0.0"]]
    assert {"5e-324", "1e-300", "1e+22", "1.0000000000000002"} <= set(" ".join(lines).split())


def test_assemble_out_file_holds_the_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "holstein4.ini"
    path.write_text(HOLSTEIN_COMPLETE4)
    argv = ["assemble", "--model", str(path), "--form", "langfirsov", "--m", "1/2",
            "--cutoff", "2"]
    code, out = run(capsys, *argv)
    assert code == 0 and out.count("\n") == 2 + 27204
    target = tmp_path / "export.txt"
    code, rerun = run(capsys, *argv, "--out", str(target))
    assert code == 0 and rerun == ""
    # the header echoes the command line, which now ends in --out PATH
    command = " ".join(["nagaoka", *argv])
    expected = out.replace(command, f"{command} --out {target}", 1)
    assert target.read_bytes() == expected.encode()


def test_assemble_writes_the_same_bytes_in_blocks(capsys, tmp_path, monkeypatch):
    import nagaoka.cli as cli

    path = tmp_path / "holstein4.ini"
    path.write_text(HOLSTEIN_COMPLETE4)
    argv = ["assemble", "--model", str(path), "--form", "holstein", "--m", "3/2",
            "--cutoff", "2"]                      # 2,588 entries: the last block is short
    target = tmp_path / "export.txt"
    code, one_block = run(capsys, *argv)
    assert code == 0 and one_block.count("\n") == 2 + 2588 < 2 + cli._EXPORT_BLOCK
    assert run(capsys, *argv, "--out", str(target)) == (0, "")
    one_block_file = target.read_bytes()
    monkeypatch.setattr(cli, "_EXPORT_BLOCK", 3)
    assert run(capsys, *argv) == (0, one_block)
    target.unlink()
    assert run(capsys, *argv, "--out", str(target)) == (0, "")
    assert target.read_bytes() == one_block_file


def test_assemble_hubbard_needs_finite_u(capsys, triangle_file):
    code, _ = run(capsys, "assemble", "--model", triangle_file, "--form", "hubbard")
    assert code == 1
    code, out = run(capsys, "assemble", "--model", triangle_file,
                    "--form", "hubbard", "--u", "4.0")
    assert code == 0
    assert json.loads(out.splitlines()[0])["dimension"] == 15


def test_ed_radiation_model_file(capsys, radiation_file):
    code, out = run(capsys, "ed", "--model", radiation_file, "--all")
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(row["resolved_s"] == "1" for row in rows)
    assert all(row["boson_dimension"] == 9 for row in rows)   # two mass modes, cutoff 2
    code, out = run(capsys, "assemble", "--model", radiation_file,
                    "--form", "radiation", "--m", "0")
    assert code == 0
    assert json.loads(out.splitlines()[0])["provenance"] == "radiation"


def test_largeu_jobs_parallel_matches_serial(capsys, triangle_file, monkeypatch):
    # two workers take the chunks [1000] and [100, 7], each its own sweep
    monkeypatch.setattr("nagaoka.cli.os.cpu_count", lambda: 2)
    argv = ["largeu", "--model", triangle_file, "--u-list", "1000,100,7"]
    serial = run_err(capsys, *argv)
    parallel = run_err(capsys, *argv, "--jobs", "2")
    assert serial[0] == 0 and serial[1].count("\n") == 4
    assert parallel == (0, serial[1], serial[2].replace("1000,100,7", "1000,100,7 --jobs 2"))


def test_largeu_builds_the_hopping_triplets_once_per_sweep(capsys, triangle_file, monkeypatch):
    import nagaoka.hamiltonian as hamiltonian

    builds = []
    real = hamiltonian._hubbard_hops
    monkeypatch.setattr(hamiltonian, "_hubbard_hops",
                        lambda *args: builds.append(args) or real(*args))
    code, out = run(capsys, "largeu", "--model", triangle_file, "--u-list", "1e2,1e3,2e3,4e3")
    assert code == 0 and out.count("\n") == 5
    assert len(builds) == 1


@pytest.mark.parametrize("argv", [("largeu", "--u-list", "100"),
                                  ("assemble", "--form", "hubbard", "--u", "4")])
def test_full_space_forms_refuse_a_radiation_field(capsys, radiation_file, argv):
    code, out, err = run_err(capsys, *argv, "--model", radiation_file)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "[radiation] block" in err


@pytest.mark.parametrize("command", [("ed", "--all"), ("spin",), ("certify", "--all")])
def test_the_default_form_refuses_a_model_with_both_boson_blocks(capsys, tmp_path, command):
    # every form drops one of the two blocks, so the choice is the caller's
    path = tmp_path / "both.ini"
    path.write_text(RADIATION_TRIANGLE + "[phonon]\nomega = 1.0\ncutoff = 1\n0 0 0.5\n")
    code, out, err = run_err(capsys, *command, "--model", str(path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and all(
        word in err for word in ("[phonon]", "[radiation]", "--form"))
    for form in ("radiation", "holstein"):
        code, out, _ = run_err(capsys, *command, "--form", form, "--model", str(path))
        assert code == 0 and out


def test_largeu_csv(capsys, triangle_file):
    code, out = run(capsys, "largeu", "--model", triangle_file,
                    "--u-list", "100,1000", "--z", "auto")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,delta,delta_times_u"
    values = [line.split(",") for line in lines[1:]]
    assert [float(v[0]) for v in values] == [100.0, 1000.0]
    assert float(values[1][1]) < float(values[0][1])


def test_certify_json(capsys, triangle_file):
    code, out = run(capsys, "certify", "--model", triangle_file, "--all")
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(row["ground_strictly_positive"] for row in rows)
    assert all(row["min_entry"] > 1e-12 for row in rows)


def test_certify_qgrid(capsys, holstein_file):
    spacing = float(np.sqrt(2.0) * 0.5 / 3)
    code, out = run(capsys, "certify", "--model", holstein_file, "--m", "1/2",
                    "--qgrid", "32", "--spacing", f"{spacing!r}")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["ground_strictly_positive"]
    assert row["points"] == 32


@pytest.mark.parametrize("argv, condition", [
    (("certify", "--all", "--qgrid", "0", "--spacing", "0.2"), "--qgrid: must be >= 1, got 0"),
    (("certify", "--all", "--qgrid", "-3", "--spacing", "0.2"), "--qgrid: must be >= 1, got -3"),
    (("certify", "--all", "--qgrid", "8", "--spacing", "0"), "--spacing: must be finite and > 0"),
    (("certify", "--all", "--qgrid", "8", "--spacing", "nan"), "--spacing: must be finite and > 0"),
    (("certify", "--all", "--qgrid", "8", "--spacing=-inf"), "--spacing: must be finite and > 0"),
    (("largeu", "--u-list", "10", "--z", "1,nan"), "--z: both parts must be finite"),
    (("largeu", "--u-list", "10", "--z", "inf,1"), "--z: both parts must be finite"),
    (("largeu", "--u-list", "10", "--z", "1,0"), "--z: needs a nonzero imaginary part"),
    (("largeu", "--u-list", "10", "--z", "1"), "--z: expected auto or RE,IM"),
])
def test_grid_and_resolvent_arguments_are_validated_by_the_parser(capsys, holstein_file,
                                                                   argv, condition):
    code = main([*argv, "--model", holstein_file])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert condition in captured.err and "Traceback" not in captured.err


def test_certify_qgrid_lanczos_route_matches_dense(capsys, holstein_file, monkeypatch):
    """Criterion 12's model with every solve forced to Lanczos (and its
    deflation guard) against every solve forced dense."""
    spacing = float(np.sqrt(2.0) * 0.5 / 3)

    def rows(points, lanczos):
        with monkeypatch.context() as mp:
            mp.setattr("nagaoka.spectral.uses_lanczos", lambda mat: lanczos)
            code, out = run(capsys, "certify", "--model", holstein_file, "--all",
                            "--qgrid", str(points), "--spacing", f"{spacing!r}")
        assert code == 0
        return json.loads(out)["results"]

    for points in (16, 32):
        for guarded, dense in zip(rows(points, True), rows(points, False)):
            assert abs(guarded.pop("ground_energy") - dense.pop("ground_energy")) <= 1e-10
            guarded.pop("min_entry"), dense.pop("min_entry")
            assert guarded == dense and guarded["ground_unique"]


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_model_exits_1(capsys):
    code, _ = run(capsys, "ed", "--model", "missing.toml", "--all")
    assert code == 1


def test_invalid_sector_exits_1(capsys, triangle_file):
    code, _ = run(capsys, "ed", "--model", triangle_file, "--m", "1/2")
    assert code == 1


def test_budget_exhaustion_exits_2(capsys, holstein_file, monkeypatch):
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", "4")
    code, _ = run(capsys, "ed", "--model", holstein_file, "--all")
    assert code == 2


@pytest.mark.parametrize("value", ["inf", "1e400", "abc", "", "nan", "-5", "2.5"])
def test_a_malformed_dimension_budget_exits_1_naming_the_variable(capsys, triangle_file,
                                                                  monkeypatch, value):
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", value)
    code, out, err = run_err(capsys, "ed", "--m", "1", "--model", triangle_file)
    assert code == 1 and out == ""
    assert err == (f"error: NAGAOKA_DIM_BUDGET must be a finite, non-negative integer, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("value", ["3", "3.0", "1e6", " 200000 "])
def test_an_integral_dimension_budget_is_accepted(capsys, triangle_file, monkeypatch, value):
    code, default = run(capsys, "ed", "--m", "1", "--model", triangle_file)
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", value)
    assert run(capsys, "ed", "--m", "1", "--model", triangle_file) == (code, default)
    assert code == 0


@pytest.mark.parametrize("command", [("largeu", "--u-list", "10"),
                                     ("assemble", "--form", "hubbard", "--u", "4")])
def test_a_warm_basis_cache_still_checks_the_dimension_budget(capsys, tmp_path, monkeypatch,
                                                              command):
    path = tmp_path / "complete4.ini"
    path.write_text("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                    "[coulomb]\nu = 4.0\n")
    argv = [*command, "--model", str(path)]
    assert run(capsys, *argv)[0] == 0            # builds the 56-word Fock basis
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", "abc")
    assert run_err(capsys, *argv) == (1, "", "error: NAGAOKA_DIM_BUDGET must be a finite, "
                                             "non-negative integer, got 'abc'\n")
    monkeypatch.setenv("NAGAOKA_DIM_BUDGET", "5")
    assert run_err(capsys, *argv) == (2, "", "numerical failure: Fock basis of 3 electrons on "
                                             "4 sites needs dimension 56 > budget 5 (raise "
                                             "NAGAOKA_DIM_BUDGET to override)\n")


def test_hubbard_budget_refused_before_enumeration(capsys, tmp_path):
    # 14 sites, 13 electrons: C(28, 13) ~ 3.7e7 Fock words, far over budget
    path = tmp_path / "chain14.ini"
    path.write_text("[lattice]\nsites = 14\ngenerator = chain\nextent = 14\nt = 1.0\n"
                    "[coulomb]\nu = 4.0\n")
    start = time.perf_counter()
    code, _ = run(capsys, "assemble", "--model", str(path), "--form", "hubbard")
    assert code == 2
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("cutoff", ["0", "2"])
@pytest.mark.parametrize("kappa", ["40", "80", "1e4"])
def test_radiation_mode_set_is_budgeted_before_it_is_built(capsys, tmp_path, kappa, cutoff):
    # L = 4: kappa L / 2 pi = 2 kappa / pi, so at kappa = 40 the ball holds
    # about 69,000 wave vectors (138,000 modes) among 132,651 candidates;
    # cutoff 0 keeps the boson dimension at 1, so the mode count is capped
    # on its own
    path = tmp_path / "radiation.ini"
    path.write_text(RADIATION_TRIANGLE.replace("kappa = 1.0", f"kappa = {kappa}")
                    .replace("cutoff = 2", f"cutoff = {cutoff}"))
    start = time.perf_counter()
    code, out, err = run_err(capsys, "ed", "--m", "1", "--model", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("numerical failure: ") and "Traceback" not in err


@pytest.mark.parametrize("z", ["auto", "0,1"])
def test_largeu_refuses_a_full_space_too_large_to_densify(capsys, tmp_path, z):
    # complete-8 at U = 4: C(16, 7) = 11,440 Fock states, 2.1 GB per dense
    # complex matrix; refused before the default z or the resolvents densify
    path = tmp_path / "complete8.ini"
    path.write_text("[lattice]\nsites = 8\ngenerator = complete\nextent = 8\nt = 1.0\n"
                    "[coulomb]\nu = 4.0\n")
    start = time.perf_counter()
    code, out, err = run_err(capsys, "largeu", "--u-list", "10", "--z", z, "--model", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "on the dense 11440x11440 full space needs 130873600 stored entries" in err


def test_ed_complete12_maximal_spin(capsys, tmp_path):
    path = tmp_path / "complete12.ini"
    path.write_text("[lattice]\nsites = 12\ngenerator = complete\nextent = 12\nt = 1.0\n"
                    "[coulomb]\nu = inf\n")
    code, out = run(capsys, "ed", "--model", str(path), "--m", "1/2")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["dimension"] == 5544
    assert (row["resolved_s"], row["degeneracy"]) == ("11/2", 1)
    assert abs(row["ground_energy"] + 11.0) <= 1e-10    # -lambda_max(t) = -11 on K_12


def test_ed_triangular_2x7_nagaoka_at_14_sites(capsys, tmp_path):
    # Nagaoka's theorem beyond the corpus: dimension 14 * C(13, 7) = 24024
    path = tmp_path / "tri2x7.ini"
    path.write_text("[lattice]\nsites = 14\ngenerator = triangular_patch\nextent = 2x7\n"
                    "t = 1.0\n[coulomb]\nu = inf\n")
    code, out = run(capsys, "ed", "--model", str(path), "--m", "1/2")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["dimension"] == 24024
    assert (row["resolved_s"], row["degeneracy"]) == ("13/2", 1)
    top = np.linalg.eigvalsh(generate_lattice("triangular_patch", (2, 7), 1.0))[-1]
    assert abs(row["ground_energy"] + top) <= 1e-9


def _ring_file(tmp_path, sites):
    path = tmp_path / f"ring{sites}.ini"
    path.write_text(f"[lattice]\nsites = {sites}\ngenerator = ring\nextent = {sites}\n"
                    "t = 1.0\n[coulomb]\nu = inf\n")
    return str(path)


def test_ed_ring60_polarized_sector(capsys, tmp_path):
    # (hole, up_mask) of 60 sites does not fit one packed int64 key
    code, out = run(capsys, "ed", "--model", _ring_file(tmp_path, 60), "--m", "59/2")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert (row["dimension"], row["resolved_s"], row["degeneracy"]) == (60, "59/2", 1)


@pytest.mark.parametrize("argv", [("basis", "--m", "63/2"), ("ed", "--m", "63/2"),
                                  ("connectivity", "--all")])
def test_ring64_exits_1_naming_the_site_limit(capsys, tmp_path, argv):
    code = main([*argv, "--model", _ring_file(tmp_path, 64)])
    err = capsys.readouterr().err
    assert code == 1
    assert "size violated" in err and "at most 63 sites" in err
    assert "Traceback" not in err


def _solved_rows(monkeypatch) -> list:
    """The row count of every matrix that one of the three solver primitives
    receives, every solve going through one of them: the stacked ``eigh``,
    ``sla.eigh`` and ``_lanczos``."""
    import nagaoka.spectral as spectral

    rows = []

    def spy(real):
        return lambda a, *args, **kwargs: rows.append(a.shape[-1]) or real(a, *args, **kwargs)

    monkeypatch.setattr(spectral.np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(spectral.sla, "eigh", spy(spectral.sla.eigh))
    monkeypatch.setattr(spectral, "_lanczos", spy(spectral._lanczos))
    return rows


@pytest.mark.parametrize("name, argv", [("triangle3", ("--all",)),
                                        ("triangular2x4", ("--all",)),
                                        ("triangular2x4", ("--m", "-1/2"))],
                         ids=["triangle3-all", "triangular2x4-all", "triangular2x4-lone-negative"])
def test_certify_solves_the_polarized_sector_alone(capsys, tmp_path, monkeypatch, name, argv):
    # Nagaoka's theorem certifies every sector of a connected lattice from
    # the ground vector of the polarized sector, whose dimension is the
    # site count: one solve per command
    path = _corpus_file(tmp_path, name)
    rows = _solved_rows(monkeypatch)
    code, out = run(capsys, "certify", "--model", path, *argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert all(row["ground_unique"] and row["ground_strictly_positive"] for row in results)
    sites = 3 if name == "triangle3" else 8
    assert len(results) == (sites if argv[0] == "--all" else 1) and rows == [sites]


def test_certify_chain3_takes_each_route_and_keeps_its_payload(capsys, tmp_path, monkeypatch):
    # M = 1 by the theorem (M = -1 as its spin flip), the reducible M = 0 by
    # the eigenvector route; every row is as the eigenvector route gave it
    import nagaoka.positivity as positivity

    routes = []
    real_theorem, real_eigen = positivity.SectorCertifier.by_theorem, positivity.eigenvector_certificate
    monkeypatch.setattr(positivity.SectorCertifier, "by_theorem", lambda self, h, structure=None:
                        routes.append((h.m, "theorem")) or real_theorem(self, h, structure))
    monkeypatch.setattr(positivity, "eigenvector_certificate", lambda h, structure=None:
                        routes.append((h.m, "eigenvector")) or real_eigen(h, structure))
    code, out = run(capsys, "certify", "--all", "--model", _corpus_file(tmp_path, "chain3"))
    assert code == 0
    assert routes == [(1, "theorem"), (0, "theorem"), (0, "eigenvector")]
    polarized = {"basis": "configuration", "offdiag_sign_ok": True, "irreducible": True,
                 "ground_unique": True, "ground_strictly_positive": True,
                 "min_entry": 0.49999999999999967}
    rows = [{"m": "-1", **polarized},
            {"m": "0", "basis": "configuration", "offdiag_sign_ok": True, "irreducible": False,
             "ground_unique": False, "ground_strictly_positive": False, "min_entry": -0.0},
            {"m": "1", **polarized}]
    assert json.dumps(json.loads(out)["results"]) == json.dumps(rows)       # -0.0 kept


def test_certify_a_lone_negative_sector_equals_its_row_of_all(capsys, tmp_path, monkeypatch):
    # the lone -1/2 is the verified spin flip of 1/2, whose certificate
    # assembles the polarized +7/2 and walks down from it by S-, as --all does
    import nagaoka.positivity as positivity

    path = _corpus_file(tmp_path, "triangular2x4")
    _, every = run(capsys, "certify", "--all", "--model", path)
    tops = []
    real = positivity.assemble_sector
    monkeypatch.setattr(positivity, "assemble_sector",
                        lambda model, form, m, cutoff: tops.append(m)
                        or real(model, form, m, cutoff))
    code, alone = run(capsys, "certify", "--m", "-1/2", "--model", path)
    assert code == 0 and tops == [Fraction(7, 2)]
    rows = {row["m"]: row for row in json.loads(every)["results"]}
    assert json.loads(alone)["results"] == [rows["-1/2"]]


def test_jobs_below_one_exits_1(capsys, triangle_file):
    for value in ("0", "-2", "two"):
        code, _ = run(capsys, "ed", "--model", triangle_file, "--all", "--jobs", value)
        assert code == 1


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count and maps
    in-process, so no worker is started."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


@pytest.mark.parametrize("jobs, cpus, expected", [
    ("64", 2, [2]),          # capped by the CPU count
    ("64", 8, [2]),          # capped by the two solved sectors (M = -1 is the flip of M = 1)
    ("2", 8, [2]),
    ("1", 8, []),            # serial: no executor at all
])
def test_jobs_clamped_to_tasks_and_cpus(capsys, triangle_file, monkeypatch, jobs, cpus, expected):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr("nagaoka.cli.os.cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingExecutor, "created", [])
    _, serial = run(capsys, "ed", "--model", triangle_file, "--all")
    code, out = run(capsys, "ed", "--model", triangle_file, "--all", "--jobs", jobs)
    assert code == 0
    assert _RecordingExecutor.created == expected
    assert out == serial.replace("--all", f"--all --jobs {jobs}")


def test_out_file(capsys, tmp_path, triangle_file):
    target = tmp_path / "report.json"
    code, out = run(capsys, "connectivity", "--model", triangle_file,
                    "--all", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]


def test_reproduce_subset(capsys, tmp_path):
    target = tmp_path / "summary.json"
    code = main(["reproduce", "--criteria", "2,3,9", "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3 + 1           # three criteria plus the summary line
    summary = json.loads(target.read_text())
    assert summary["all_passed"]
    assert [row["criterion"] for row in summary["results"]] == [2, 3, 9]


HOLSTEIN_COMPLETE4 = ("[lattice]\nsites = 4\ngenerator = complete\nextent = 4\nt = 1.0\n"
                      "[coulomb]\nu = inf\n[phonon]\nomega = 1.0\ncutoff = 2\n"
                      + "".join(f"{x} {x} 0.5\n" for x in range(4)))

CORPUS_FILES = {"pair2": ("complete", "2"), "chain3": ("chain", "3"),
                "triangle3": ("complete", "3"), "cycle4": ("square_patch", "2x2"),
                "complete4": ("complete", "4"), "square_diag4": ("triangular_patch", "2x2")}


LATTICE_FILES = {**CORPUS_FILES, "ring8": ("ring", "8"),
                 "triangular2x3": ("triangular_patch", "2x3"),
                 "triangular2x4": ("triangular_patch", "2x4")}


def _corpus_file(tmp_path, name):
    generator, extent = LATTICE_FILES[name]
    sites = int(np.prod([int(n) for n in extent.split("x")]))
    path = tmp_path / f"{name}.ini"
    path.write_text(f"[lattice]\nsites = {sites}\ngenerator = {generator}\nextent = {extent}\n"
                    "t = 1.0\n[coulomb]\nu = inf\n")
    return str(path)


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err.split("# wall time")[0]


def _assembled(path, m, *extra):
    """Sector ``m`` of the model at ``path`` as ``ed`` or ``certify`` with
    ``extra`` assembles it, but for M < 0 too: the oracle's own -M matrix."""
    from nagaoka.cli import _pick_form
    from nagaoka.hamiltonian import HOLE_FRAME_FORM, assemble_sector
    from nagaoka.model import load_model

    model, options = load_model(path), dict(zip(extra[::2], extra[1::2]))
    form = options.get("--form") or _pick_form(model)
    cutoff = int(options["--cutoff"]) if "--cutoff" in options else None
    return assemble_sector(model, HOLE_FRAME_FORM if form == "langfirsov" else form, m, cutoff)


def _negative_rows_match_direct_solves(capsys, path, *extra):
    # each -M row, the spin flip of +M, against ground_report of the
    # assembled -M sector itself
    from nagaoka.spectral import SpectralReport, ground_report

    code, out, err = run_err(capsys, "ed", "--all", "--model", path, *extra)
    if code != 0:
        return code, err
    for row in json.loads(out)["results"]:
        m = Fraction(row["m"])
        if m >= 0:
            continue
        solved = ground_report(_assembled(path, m, *extra))
        assert list(row) == list(SpectralReport.__dataclass_fields__)
        for key, value in row.items():
            expected = getattr(solved, key)
            if isinstance(value, float):
                assert abs(value - expected) <= 1e-12, (path, row["m"], key)
            else:
                assert value == (str(expected) if key in ("m", "resolved_s") else expected), \
                    (path, row["m"], key)
    return code, err


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
def test_negative_sectors_of_ed_all_match_direct_solves_on_the_corpus(capsys, tmp_path, name):
    path = _corpus_file(tmp_path, name)
    code, err = _negative_rows_match_direct_solves(capsys, path)
    if name == "chain3":
        # the mixed-spin M = 0 cluster fails the same way by both routes
        direct = run_err(capsys, "ed", "--m", "0", "--model", path)
        assert code == direct[0] == 2
        assert err == direct[2] and "holds S = 0, 1" in err
    else:
        assert code == 0


@pytest.mark.parametrize("name", sorted(LATTICE_FILES))
def test_negative_certificates_of_certify_all_match_direct_runs(capsys, tmp_path, name):
    # a -M row is the M row with m flipped; against eigenvector_certificate
    # of the assembled -M sector only min_entry moves, by the rounding of a
    # second solve
    from nagaoka.positivity import eigenvector_certificate

    path = _corpus_file(tmp_path, name)
    code, out = run(capsys, "certify", "--all", "--model", path)
    assert code == 0
    rows = {Fraction(row["m"]): row for row in json.loads(out)["results"]}
    assert list(rows) == sorted(rows)
    for m, row in rows.items():
        if m >= 0:
            continue
        assert row == {**rows[-m], "m": str(m)}
        cert = eigenvector_certificate(_assembled(path, m))
        assert abs(row["min_entry"] - cert.min_entry) <= 2e-14 * abs(cert.min_entry)
        assert {**row, "min_entry": None} == {
            "m": str(m), "basis": cert.basis_tag, "offdiag_sign_ok": cert.offdiag_sign_ok,
            "irreducible": cert.irreducible, "ground_unique": cert.ground_unique,
            "ground_strictly_positive": cert.ground_strictly_positive, "min_entry": None}


def _case(tmp_path, name):
    """The model file and the options of one case: a lattice of
    ``LATTICE_FILES``, the radiation triangle, or Holstein complete-4 at
    cutoff 2 in the boson form ``name``."""
    if name in LATTICE_FILES:
        return _corpus_file(tmp_path, name), ()
    path = tmp_path / f"{name}.ini"
    if name == "radiation":
        path.write_text(RADIATION_TRIANGLE)
        return str(path), ()
    path.write_text(HOLSTEIN_COMPLETE4)
    return str(path), ("--form", name, "--cutoff", "2")


@pytest.mark.parametrize("name", [*sorted(LATTICE_FILES), "holstein", "langfirsov", "radiation"])
def test_a_lone_sector_equals_its_row_of_all(capsys, tmp_path, name):
    # every lone M, and so every lone -M solved or certified as the spin
    # flip of +M, is its --all row byte for byte (the ed --all of chain3 and
    # ring8 exits 2 on a ground cluster of mixed spin, so they check certify
    # alone)
    path, extra = _case(tmp_path, name)
    runs = [("certify",)] + [("ed",), ("ed", "--jobs", "2")] * (name not in ("chain3", "ring8"))
    for command in runs:
        code, every = run(capsys, command[0], "--all", "--model", path, *extra)
        assert code == 0
        rows = {row["m"]: json.dumps(row) for row in json.loads(every)["results"]}
        for m, expected in rows.items():
            code, alone = run(capsys, *command, f"--m={m}", "--model", path, *extra)
            assert code == 0
            (row,) = json.loads(alone)["results"]
            assert json.dumps(row) == expected, (command, m)


@pytest.mark.parametrize("form", ["holstein", "langfirsov", "radiation"])
def test_negative_sectors_of_ed_all_match_direct_solves_with_bosons(capsys, tmp_path, form):
    path, extra = _case(tmp_path, form)
    assert _negative_rows_match_direct_solves(capsys, path, *extra)[0] == 0


@pytest.mark.parametrize("name", ["complete4", "holstein"])
@pytest.mark.parametrize("argv", [("ed", "--all"), ("spin",), ("certify", "--all"),
                                  ("ed", "--m=-1/2"), ("ed", "--m=-3/2"), ("certify", "--m=-1/2")],
                         ids=" ".join)
def test_only_nonnegative_sectors_are_solved(capsys, tmp_path, monkeypatch, name, argv):
    # every M < 0 the CLI reports is the verified spin flip of +M: no
    # ground_report, certificate or certifier assembly sees a sector below 0
    import nagaoka.cli as cli
    import nagaoka.positivity as positivity

    solved, seen = [], []

    def recording(real, position, into):
        def wrapper(*args, **kwargs):
            into.append(args[position] if isinstance(args[position], Fraction)
                        else args[position].m)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "ground_report", recording(cli.ground_report, 0, solved))
    monkeypatch.setattr(positivity, "assemble_sector",
                        recording(positivity.assemble_sector, 2, seen))
    for method in ("__call__", "by_theorem", "report", "_step"):
        real = getattr(positivity.SectorCertifier, method)
        monkeypatch.setattr(positivity.SectorCertifier, method, recording(real, 1, seen))
    path, extra = _case(tmp_path, name)
    code, out = run(capsys, *argv, "--model", path, *extra)
    assert code == 0
    assert solved + seen and min(solved + seen) >= 0
    if name == "complete4" and argv in (("ed", "--all"), ("spin",)):
        assert sorted(solved) == [Fraction(1, 2), Fraction(3, 2)]
    if argv == ("ed", "--all"):
        assert [row["m"] for row in json.loads(out)["results"]] == ["-3/2", "-1/2", "1/2", "3/2"]


def test_spin_table_reports_negative_sectors_from_positive_ones(capsys, holstein_file):
    code, out = run(capsys, "spin", "--model", holstein_file)
    assert code == 0
    header, low, high = out.strip().splitlines()
    assert (low.split()[0], high.split()[0]) == ("-1/2", "1/2")
    assert low.split()[1:] == high.split()[1:]


def _zeeman_at_negative_m(monkeypatch):
    """Make every sector form add a field on site 0's spin at M < 0 only,
    so H(-M) is no longer the spin flip of H(M)."""
    import nagaoka.cli as cli
    from nagaoka.hamiltonian import SectorHamiltonian
    from nagaoka.manybody import SparseHermitian

    real = cli.assemble_sector

    def zeeman_at_negative_m(model, form, m, cutoff):
        h = real(model, form, m, cutoff)
        if m >= 0:
            return h
        field = sp.diags(0.1 * (h.basis.masks & 1))
        return SectorHamiltonian(model=h.model, m=h.m, basis=h.basis, provenance=h.provenance,
                                 op=SparseHermitian(h.op.matrix + field))

    monkeypatch.setattr(cli, "assemble_sector", zeeman_at_negative_m)


def test_ed_all_exits_2_when_a_sector_is_not_the_spin_flip(capsys, tmp_path, monkeypatch):
    _zeeman_at_negative_m(monkeypatch)
    path = _corpus_file(tmp_path, "complete4")
    code, out, err = run_err(capsys, "ed", "--all", "--model", path)
    assert code == 2 and out == ""
    assert "numerical failure: H of sector M = -1/2 is not the spin flip of H of M = 1/2" in err


@pytest.mark.parametrize("command", ["ed", "certify"])
def test_a_lone_negative_sector_exits_2_when_it_is_not_the_spin_flip(capsys, tmp_path,
                                                                     monkeypatch, command):
    _zeeman_at_negative_m(monkeypatch)
    path = _corpus_file(tmp_path, "complete4")
    code, out, err = run_err(capsys, command, "--m=-1/2", "--model", path)
    assert code == 2 and out == ""
    assert "numerical failure: H of sector M = -1/2 is not the spin flip of H of M = 1/2" in err


def test_certify_all_exits_2_when_a_sector_is_not_the_spin_flip(capsys, tmp_path, monkeypatch):
    _zeeman_at_negative_m(monkeypatch)
    path = _corpus_file(tmp_path, "complete4")
    code, out, err = run_err(capsys, "certify", "--all", "--model", path)
    assert code == 2 and out == ""
    assert "numerical failure: H of sector M = -1/2 is not the spin flip of H of M = 1/2" in err


@pytest.mark.parametrize("text, m, basis, irreducible", [
    (HOLSTEIN_PAIR, "1/2", "configuration x boson (gauged)", True),
    (RADIATION_TRIANGLE, "1", "configuration x boson", False)], ids=["phonon", "radiation"])
def test_certify_without_qgrid_certifies_the_form_of_the_model(capsys, tmp_path, text, m,
                                                               basis, irreducible):
    # the default form follows the model's blocks, as in ed: the Holstein
    # pair is certified in its boson-parity gauge; the kappa = 1 triangle's
    # decoupled modes split its sector into blocks
    path = tmp_path / "bosons.ini"
    path.write_text(text)
    code, out, err = run_err(capsys, "certify", "--m", m, "--model", str(path))
    assert code == 0 and err == ""
    (row,) = json.loads(out)["results"]
    assert row["basis"] == basis and row["offdiag_sign_ok"]
    assert row["irreducible"] == row["ground_strictly_positive"] == irreducible


@pytest.mark.parametrize("cutoff, form", [(c, f) for f in ("holstein", "langfirsov") for c in "23"],
                         ids=["2", "3", "langfirsov-2", "langfirsov-3"])
def test_paired_jobs_rerun_and_spread_identically(capsys, tmp_path, cutoff, form):
    # at cutoff 3 a Holstein worker lowers from the polarized sector it
    # solves itself; the Lang-Firsov form is solved in its hole-displaced basis
    path = tmp_path / "holstein4.ini"
    path.write_text(HOLSTEIN_COMPLETE4)
    argv = ["ed", "--all", "--form", form, "--cutoff", cutoff, "--model", str(path)]
    _, first = run(capsys, *argv)
    _, again = run(capsys, *argv)
    _, spread = run(capsys, *argv, "--jobs", "2")
    assert first == again
    assert spread == first.replace(str(path), f"{path} --jobs 2")


def test_spin_jobs_parallel_matches_serial(capsys, tmp_path):
    path = tmp_path / "holstein4.ini"
    path.write_text(HOLSTEIN_COMPLETE4)
    argv = ["spin", "--form", "holstein", "--cutoff", "2", "--model", str(path)]
    _, serial = run(capsys, *argv)
    code, parallel = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert parallel == serial


@pytest.mark.parametrize("command", ["basis", "connectivity", "assemble", "certify"])
def test_jobs_is_refused_where_it_does_not_act(capsys, triangle_file, command):
    extra = ("--form", "nagaoka") if command == "assemble" else ("--all",)
    code, out, err = run_err(capsys, command, *extra, "--jobs", "2", "--model", triangle_file)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --jobs 2" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["ed", "basis"])
@pytest.mark.parametrize("m", ["-1/2", "-3/2"])
def test_negative_half_integer_sector_parses_without_equals(capsys, tmp_path, command, m):
    path = _corpus_file(tmp_path, "complete4")
    code, spaced = run(capsys, command, "--m", m, "--model", path)
    _, glued = run(capsys, command, f"--m={m}", "--model", path)
    assert code == 0
    assert json.loads(spaced)["results"] == json.loads(glued)["results"]
    assert json.loads(spaced)["results"][0]["m"] == m


def test_negative_integer_sector_parses_and_a_flag_is_not_a_sector(capsys, tmp_path):
    path = _corpus_file(tmp_path, "chain3")
    code, out = run(capsys, "basis", "--m", "-1", "--model", path)
    assert code == 0 and json.loads(out)["results"][0]["m"] == "-1"
    code, out, err = run_err(capsys, "basis", "--m", "-x", "--model", path)
    assert code == 1 and out == ""
    assert "argument --m: expected one argument" in err


def _longest_digit_run(text: str) -> int:
    return max(map(len, re.findall(r"\d+", text)), default=0)


@pytest.mark.parametrize("argv, reason", [
    (("--m=1e5000",), "'1e5000': magnetization is out of range: |M| > 63/2"),
    (("--m", "1e400"), "'1e400': magnetization is out of range: |M| > 63/2"),
    (("--m", "nan"), "'nan' is not a number"),
    (("--m", "inf"), "'inf' is not a number"),
    (("--m", "1/0"), "'1/0' is not a number"),
    (("--m", "1/3"), "'1/3': magnetization is not a half-integer"),
    (("--m", "32"), "'32': magnetization is out of range: |M| > 63/2"),
    (("--m", "1e-999999999"), "'1e-999999999': magnetization is not a half-integer"),
    (("--m", "9" * 5000 + "/2"), "'999999999999999999999...' is not a number"),
])
@pytest.mark.parametrize("command", ["ed", "assemble"])
def test_malformed_sector_exits_1_naming_m(capsys, triangle_file, command, argv, reason):
    extra = ("--form", "nagaoka") if command == "assemble" else ()
    code, out, err = run_err(capsys, command, *argv, *extra, "--model", triangle_file)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == f"error: cli violated: --m {reason}\n"
    assert _longest_digit_run(err) <= _longest_digit_run(argv[-1])


@pytest.mark.parametrize("m, expected", [("5e-1", "1/2"), ("-1.0", "-1"), ("0e99999", "0"),
                                         ("2/4", "1/2")])
def test_sector_accepts_decimal_and_fraction_spellings(capsys, tmp_path, m, expected):
    name = "complete4" if "/" in expected else "chain3"
    code, out = run(capsys, "basis", f"--m={m}", "--model", _corpus_file(tmp_path, name))
    assert code == 0 and json.loads(out)["results"][0]["m"] == expected


def test_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "ring10.ini"
    path.write_text("[lattice]\nsites = 10\ngenerator = ring\nextent = 10\nt = 1.0\n"
                    "[coulomb]\nu = inf\n")
    env = _subprocess_env()
    # about 300 kB of configurations: more than a pipe buffer holds
    proc = subprocess.Popen([sys.executable, "-m", "nagaoka", "basis", "--all", "--list",
                             "--model", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "stdout was closed" in err


@pytest.mark.parametrize("argv", [
    ("basis", "--m", "1", "--model", "{dir}"),
    ("ed", "--all", "--model", "{model}", "--out", "{dir}"),
    ("reproduce", "--criteria", "2", "--out", "{dir}"),
], ids=["model", "ed-out", "reproduce-out"])
def test_a_directory_where_a_file_is_needed_exits_1_naming_it(capsys, tmp_path, triangle_file,
                                                              argv):
    folder = tmp_path / "folder"
    folder.mkdir()
    code, _, err = run_err(capsys, *(a.format(dir=folder, model=triangle_file) for a in argv))
    assert code == 1
    assert err == f"error: [Errno 21] Is a directory: {str(folder)!r}\n"


def test_reproduce_refuses_an_unwritable_out_before_any_criterion_runs(capsys, tmp_path):
    code, out, err = run_err(capsys, "reproduce", "--criteria", "2", "--out", str(tmp_path))
    assert code == 1 and err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("name", ["folder", "missing/out.json"])
def test_ed_refuses_an_unwritable_out_before_any_solve(capsys, tmp_path, triangle_file,
                                                       monkeypatch, name):
    import nagaoka.cli as cli

    solves = []
    monkeypatch.setattr(cli, "ground_report", lambda *a, **k: solves.append(a))
    (tmp_path / "folder").mkdir()
    out = tmp_path / name
    code, _, err = run_err(capsys, "ed", "--all", "--model", triangle_file, "--out", str(out))
    assert code == 1 and err.startswith("error: [Errno ") and repr(str(out)) in err
    assert solves == []


def test_an_existing_out_file_is_neither_truncated_nor_created_before_the_work(
        capsys, tmp_path, triangle_file, monkeypatch):
    import nagaoka.cli as cli

    folder, seen = tmp_path / "out", []

    def fail(*args, **kwargs):
        seen.append((sorted(p.name for p in folder.iterdir()), (folder / "kept.json").read_text()))
        raise ValueError("stop")

    monkeypatch.setattr(cli, "ground_report", fail)
    folder.mkdir()
    (folder / "kept.json").write_text("old")
    for name in ("kept.json", "new.json"):
        assert run_err(capsys, "ed", "--m", "1", "--model", triangle_file,
                       "--out", str(folder / name))[0] == 1
    assert seen == [(["kept.json"], "old")] * 2


def test_an_os_error_without_a_path_is_not_a_usage_error(capsys, triangle_file, monkeypatch):
    import errno

    import nagaoka.cli as cli

    def fail(path):
        raise OSError(errno.ENOSYS, "Function not implemented")

    monkeypatch.setattr(cli, "load_model", fail)
    with pytest.raises(OSError, match="Function not implemented"):
        main(["basis", "--m", "1", "--model", triangle_file])


@pytest.mark.parametrize("argv, built, code", [
    (("basis", "--m", "1", "--model", "{model}"), 1, 0),
    (("ed", "--bogus", "--model", "{model}"), 1 + 9, 1),       # left over: the tree reports it
    (("frobnicate",), 9, 1),
    (("--help",), 9, 0),
], ids=["subcommand", "left-over", "unknown", "help"])
def test_a_call_naming_a_subcommand_builds_that_parser_alone(capsys, triangle_file, monkeypatch,
                                                             argv, built, code):
    import nagaoka.cli as cli

    spied = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        spied.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    assert main([a.format(model=triangle_file) for a in argv]) == code
    assert len(spied) == built              # the tree: the command and its eight subcommands
    if argv[0] == "basis":
        assert spied == ["nagaoka basis"]


_TREE_CASES = [
    *((command, "-h") for command in ("basis", "connectivity", "assemble", "ed", "spin",
                                      "largeu", "certify", "reproduce")),
    ("basis", "--model", "{model}", "--all", "--list"),
    ("connectivity", "--model", "{model}", "--m", "-1/2"),
    ("assemble", "--model", "{model}", "--form", "hubbard", "--u", "3", "--out", "x"),
    ("ed", "--model", "{model}", "--m", "1", "--cutoff", "2", "--form", "holstein", "--jobs", "2"),
    ("ed", "--model", "{model}", "--", "--m"),
    ("spin", "--model", "{model}", "--jobs", "3"),
    ("largeu", "--model", "{model}", "--u-list", "1,2", "--z", "0.5,3"),
    ("certify", "--model", "{model}", "--all", "--qgrid", "3", "--spacing", "0.5"),
    ("reproduce", "--criteria", "3,1"),
    ("reproduce",),
    ("ed", "--all"),                                           # --model missing
    ("ed", "--model", "{model}", "--m", "1", "--all"),         # not allowed together
    ("ed", "--model", "{model}", "--jobs", "0"),
    ("largeu", "--model", "{model}", "--u-list", "inf"),
    ("reproduce", "--criteria", "99"),
    ("spin", "--model", "{model}", "--all"),                   # an option spin lacks
    ("certify", "--model", "{model}", "extra"),
    ("ed", "--mod", "{model}", "--all"),                       # an abbreviation
    (),
]


def _parsed(capsys, parse, argv):
    try:
        result = sorted(vars(parse(argv)).items())
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", _TREE_CASES, ids=lambda argv: " ".join(argv) or "empty")
def test_a_subcommand_parser_parses_as_the_tree_does(capsys, triangle_file, argv):
    import nagaoka.cli as cli

    argv = [a.format(model=triangle_file) for a in argv]
    alone = _parsed(capsys, cli._parse, argv)
    assert alone == _parsed(capsys, lambda argv: cli.build_parser().parse_args(argv), argv)
    if argv[1:] == ["-h"]:
        assert alone[0] == 0 and alone[1].startswith(f"usage: nagaoka {argv[0]} [-h]")


_SEQUENCES = {
    "out-then-stdout": [("ed", "--all", "--model", "{model}", "--out", "{out}"),
                        ("ed", "--all", "--model", "{model}")],
    "usage-error-then-ed": [("ed", "--bogus", "--model", "{model}"),
                            ("ed", "--m", "1", "--model", "{model}")],
    "spin-then-ed": [("spin", "--model", "{model}"),
                     ("ed", "--m", "1", "--model", "{model}")],
}


def _call(capsys, argv, out):
    """(exit code, stdout, stderr without the wall time, --out file text)."""
    out.unlink(missing_ok=True)
    result = run_err(capsys, *argv)
    return (*result, out.read_text() if out.exists() else None)


@pytest.mark.parametrize("name", _SEQUENCES)
def test_calls_in_one_process_leave_nothing_to_the_next(capsys, tmp_path, triangle_file, name):
    out = tmp_path / "payload.json"
    argvs = [[a.format(model=triangle_file, out=out) for a in argv] for argv in _SEQUENCES[name]]
    first, second = [_call(capsys, argv, out) for argv in argvs]
    if name == "out-then-stdout":
        assert first[:2] == (0, "") and second[0] == 0 and second[3] is None
        assert json.loads(second[1])["results"] == json.loads(first[3])["results"]
    elif name == "usage-error-then-ed":
        assert first[0] == 1 and "unrecognized arguments: --bogus" in first[2]
    else:
        assert first[0] == 0 and first[1].startswith("     M")
    if name != "out-then-stdout":
        assert second[0] == 0 and [row["m"] for row in json.loads(second[1])["results"]] == ["1"]
    # the other order gives each call the same result
    assert [_call(capsys, argv, out) for argv in argvs[::-1]] == [second, first]


def test_certify_does_not_resolve_spin(capsys, tmp_path):
    # chain3 M = 0: two orbits whose ground states carry S = 0 and S = 1;
    # the certificate reports the reducible sector instead of a spin failure
    code, out = run(capsys, "certify", "--all", "--model", _corpus_file(tmp_path, "chain3"))
    assert code == 0
    rows = {row["m"]: row for row in json.loads(out)["results"]}
    assert not rows["0"]["irreducible"] and not rows["0"]["ground_unique"]
    assert all(rows[m]["irreducible"] and rows[m]["ground_unique"] for m in ("-1", "1"))


def test_certify_spacing_needs_qgrid(capsys, holstein_file):
    code, out, err = run_err(capsys, "certify", "--all", "--spacing", "0.2",
                             "--model", holstein_file)
    assert code == 1 and out == ""
    assert "--spacing needs --qgrid" in err and "Traceback" not in err


@pytest.mark.parametrize("spacing", ["1e308", "1e-160", "1e-320"])
def test_certify_refuses_a_spacing_with_non_finite_grid_entries(capsys, holstein_file, spacing):
    code, out, err = run_err(capsys, "certify", "--all", "--qgrid", "3", "--spacing", spacing,
                             "--model", holstein_file)
    assert code == 1 and out == ""
    assert err == (f"error: grid violated: spacing {float(spacing)!r} with 3 points gives "
                   "non-finite oscillator entries\n")


@pytest.mark.parametrize("spacing, reason", [
    # every shift is ~7e19 steps: past the grid, which would leave no hopping
    ("1e-20", "grid spacings of 1e-20, a shift past the 3-point grid"),
    # every shift is ~7e-11 steps: rounding it to 0 would drop the phase
    ("1e10", "is nonzero but rounds to no step of the grid spacing 10000000000.0"),
])
def test_certify_refuses_a_spacing_that_drops_the_hopping_phase(capsys, holstein_file,
                                                                spacing, reason):
    code, out, err = run_err(capsys, "certify", "--m", "1/2", "--qgrid", "3",
                             "--spacing", spacing, "--model", holstein_file)
    assert code == 1 and out == ""
    assert err.startswith("error: commensurability violated: displacement ")
    assert reason in err and err.count("\n") == 1


def test_negative_number_with_an_exponent_is_a_value(capsys, triangle_file):
    code, out = run(capsys, "assemble", "--form", "hubbard", "--u", "-1e308",
                    "--model", triangle_file)
    assert code == 0 and json.loads(out.splitlines()[0])["u"] == -1e308


@pytest.mark.parametrize("u_list", ["nan", "inf", "-inf", "abc", "100,nan", "1e3,x2"])
def test_largeu_u_list_is_validated_by_the_parser(capsys, u_list):
    # the model is never read: the bad token is named first
    code, out, err = run_err(capsys, "largeu", f"--u-list={u_list}", "--model", "missing.ini")
    bad = u_list.split(",")[-1]
    assert code == 1 and out == ""
    assert f"--u-list: every U must be a finite number, got {bad!r}" in err
    assert "Traceback" not in err


def test_largeu_u_list_accepts_zero_and_negative_u(capsys, triangle_file):
    code, out = run(capsys, "largeu", "--model", triangle_file, "--u-list=-5,0,100")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["-5.0", "0.0", "100.0"]
    code, _, err = run_err(capsys, "largeu", "--model", triangle_file, "--u-list", ",")
    assert code == 1 and "--u-list: no U values given" in err


@pytest.mark.parametrize("argv, option", [
    (("ed", "--all", "--cutoff", "2"), "--cutoff"),                   # nagaoka picked by content
    (("ed", "--m", "1", "--form", "nagaoka", "--cutoff", "2"), "--cutoff"),
    (("spin", "--cutoff", "0"), "--cutoff"),
    (("assemble", "--form", "nagaoka", "--cutoff", "2"), "--cutoff"),
    (("assemble", "--form", "hubbard", "--u", "4", "--cutoff", "2"), "--cutoff"),
    (("assemble", "--form", "nagaoka", "--u", "4"), "--u"),
    (("assemble", "--form", "hubbard", "--u", "4", "--m", "1/2"), "--m"),
])
def test_options_the_form_would_ignore_exit_1(capsys, triangle_file, argv, option):
    code, out, err = run_err(capsys, *argv, "--model", triangle_file)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines()[0] == f"error: cli violated: {option} does not apply to the " \
        f"{'hubbard' if 'hubbard' in argv else 'nagaoka'} form"


def test_sector_forms_refuse_u(capsys, holstein_file):
    for form in ("holstein", "langfirsov"):
        code, out, err = run_err(capsys, "assemble", "--form", form, "--u", "4",
                                 "--model", holstein_file)
        assert code == 1 and out == "" and f"--u does not apply to the {form} form" in err


@pytest.mark.parametrize("form", ["holstein", "langfirsov", "radiation"])
def test_sector_forms_refuse_a_finite_u_model(capsys, tmp_path, form):
    # 3 sites at u = 4.0: every sector form is an infinite-U construction
    boson = ("[radiation]\nL = 4.0\nkappa = 1.0\nm0 = 1.0\ncutoff = 2\n" if form == "radiation"
             else "[phonon]\nomega = 1.0\ncutoff = 1\n0 0 0.5\n1 1 0.5\n2 2 0.5\n")
    path = tmp_path / "finite_u.ini"
    path.write_text(TRIANGLE.replace("u = inf", "u = 4.0") + boson)
    extra = () if form == "radiation" else ("--form", form)
    code, out, err = run_err(capsys, "ed", "--m", "1", *extra, "--model", str(path))
    assert code == 1 and out == "" and "Traceback" not in err
    assert "sector assembly is an infinite-U construction; model has U = 4.0" in err


@pytest.mark.parametrize("command", ["ed", "spin", "assemble"])
def test_cutoff_is_parsed_as_a_nonnegative_integer(capsys, holstein_file, command):
    extra = {"ed": ("--all",), "spin": (), "assemble": ("--form", "holstein", "--m", "1/2")}[command]
    for value in ("-1", "1.5", "two"):
        # the model is never read: the parser names the option first
        code, out, err = run_err(capsys, command, *extra, "--cutoff", value, "--model", "missing.ini")
        assert code == 1 and out == "" and "argument --cutoff: " in err
    code, _, err = run_err(capsys, command, *extra, "--cutoff", "-1", "--model", "missing.ini")
    assert "--cutoff: must be >= 0, got -1" in err
    code, out, _ = run_err(capsys, command, *extra, "--cutoff", "0", "--model", holstein_file)
    assert code == 0 and out


@pytest.mark.parametrize("form", ["holstein", "langfirsov", "radiation", "hubbard"])
def test_assemble_triplets_come_out_in_row_major_order(capsys, holstein_file, radiation_file,
                                                       form):
    path = radiation_file if form == "radiation" else holstein_file
    extra = ("--u", "3") if form == "hubbard" else ("--m", "1/2" if form != "radiation" else "0")
    code, out = run(capsys, "assemble", "--form", form, *extra, "--model", path)
    assert code == 0
    lines = out.splitlines()
    nnz = int(lines[1].split()[2])
    pairs = [tuple(map(int, line.split()[:2])) for line in lines[2:]]
    assert len(pairs) == nnz > 0
    assert all(a < b for a, b in zip(pairs, pairs[1:]))       # rows, then columns, ascending


_POSITIONS = "[radiation]\nL = 4.0\nkappa = 1.0\nm0 = 1.0\n"

_BAD_MODELS = {
    "hopping inf": ("[lattice]\nsites = 3\n0 1 1.0\n1 2 inf\n", "hopping entry (1, 2) = inf"),
    "hopping nan": ("[lattice]\nsites = 3\n0 1 nan\n", "hopping entry (0, 1) = nan"),
    "coulomb inf": ("[lattice]\nsites = 3\n0 1 1.0\n1 2 1.0\n[coulomb]\n0 1 inf\n",
                    "offsite_u entry (0, 1) = inf"),
    "coupling nan": ("[phonon]\nomega = 1.0\n0 0 nan\n", "phonon coupling entry (0, 0) = nan"),
    "omega inf": ("[phonon]\nomega = inf\n0 0 0.5\n", "frequency must be finite and > 0"),
    "L inf": ("[radiation]\nL = inf\nkappa = 1.0\nm0 = 1.0\n", "box_length must be finite"),
    "kappa inf": ("[radiation]\nL = 4.0\nkappa = inf\nm0 = 1.0\n", "uv_cutoff must be finite"),
    "m0 inf": ("[radiation]\nL = 4.0\nkappa = 1.0\nm0 = inf\n", "mass must be finite"),
    "position nan": ("[radiation]\nL = 4.0\nkappa = 1.0\nm0 = 1.0\n0 -1 0 0\n1 nan 0 0\n"
                     "2 1 0 0\n", "site_positions must be finite"),
    "radiation cutoff": ("[radiation]\nL = 4.0\nkappa = 1.0\nm0 = 1.0\ncutoff = -1\n",
                         "photon_cutoff must be >= 0"),
    "sites": ("[lattice]\nsites = 3.5\n", "expected an integer at [lattice] sites, got '3.5'"),
    "sites huge": ("[lattice]\nsites = 10000000\n0 1 1.0\n",
                   "size violated: 10000000 sites; models hold at most 63 sites"),
    "sites negative": ("[lattice]\nsites = -5\n0 1 1.0\n",
                       "size violated: -5 sites; models need at least 2 sites"),
    "extent": ("[lattice]\nsites = 3\ngenerator = chain\nextent = a\n",
               "expected an integer at [lattice] extent, got 'a'"),
    "phonon cutoff": ("[phonon]\nomega = 1.0\ncutoff = 2.5\n0 0 0.5\n",
                      "expected an integer at [phonon] cutoff, got '2.5'"),
    "row index": ("[lattice]\nsites = 3\n0 x 1.0\n", "expected an integer at line 3, got 'x'"),
    "no sites": ("[lattice]\n0 1 1.0\n", "[lattice] must declare sites"),
    "no omega": ("[phonon]\ncutoff = 2\n0 0 0.5\n", "[phonon] must declare omega"),
    "no kappa": ("[radiation]\nL = 4.0\nm0 = 1.0\n", "[radiation] must declare kappa"),
    "some positions": (_POSITIONS + "0 -1 0 0\n1 0 0 0\n",
                       "positions given for some sites but not all"),
    "duplicate position": (_POSITIONS + "0 -1 0 0\n0 0 0 0\n2 1 0 0\n",
                           "duplicate position for site 0 at line 10"),
    "position site": (_POSITIONS + "0 -1 0 0\n3 0 0 0\n", "site 3 out of range at line 10"),
    "radiation triplet": (_POSITIONS + "0 1 0.5\n",
                          "positions need 'site px py pz' rows (line 9)"),
    "triplet index": ("[lattice]\nsites = 3\n0 3 1.0\n",
                      "hopping index (0, 3) out of range at line 3"),
    "not a number": ("[lattice]\nsites = 3\n0 1 one\n", "expected a number at line 3, got 'one'"),
    "four tokens": ("[lattice]\nsites = 3\n0 1 1.0 2.0\n",
                    "hopping rows must be 'x y value' triplets"),
    "asymmetric offsite_u": ("[coulomb]\n0 1 1.0\n1 0 2.0\n",
                             "offsite_u entry (1, 0) given twice with different values at line 7"),
    "negative phonon cutoff": ("[phonon]\nomega = 1.0\ncutoff = -1\n0 0 0.5\n",
                               "phonon violated: per_site_cutoff must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MODELS))
def test_malformed_model_values_exit_1_with_one_line(capsys, tmp_path, case):
    text, message = _BAD_MODELS[case]
    if not text.startswith("[lattice]"):
        text = "[lattice]\nsites = 3\n0 1 1.0\n1 2 1.0\n" + text
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code, out, err = run_err(capsys, "ed", "--all", "--model", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("criteria, message", [
    (",", "no criteria given"),
    ("", "no criteria given"),
    ("a", "unknown criterion 'a'"),
    ("1,13", "unknown criterion '13'"),
    ("0", "unknown criterion '0'"),
])
def test_reproduce_criteria_are_validated_by_the_parser(capsys, criteria, message):
    code, out, err = run_err(capsys, "reproduce", "--criteria", criteria)
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"argument --criteria: {message}" in err


def test_reproduce_runs_a_repeated_criterion_once(capsys):
    code, out = run(capsys, "reproduce", "--criteria", "3,1,3,")
    assert code == 0
    assert [line[:9] for line in out.splitlines()] == ["PASS [ 1]", "PASS [ 3]", "ALL CRITE"]


_NON_FINITE = ("inf", "-inf", "nan", "-nan", "Infinity")
_VALUES = ("1.0", "0.5", "0", "-0.75", "2.5", "7", "1e300", "-1e300", "1e-300")
_INTEGERS = ("0", "1", "2", "2.5", "1e300", "99999999999999999999")
_LARGE = ("40", "80", "1e4", "1e300")


@st.composite
def model_files(draw):
    """Text of a 2- or 3-site model file whose numeric tokens are drawn from
    finite, non-finite, non-integer and huge values, and whether any value
    is non-finite.  The radiation box and mode-ball radius, whose product
    sets the size of the mode set, draw a small value, a finite large one
    or a non-finite one."""
    bad = []

    def token(pool, non_finite=_NON_FINITE):        # one token in eight non-finite
        bad.append(draw(st.integers(0, 7)) == 7)
        return draw(st.sampled_from(non_finite if bad[-1] else pool))

    sites = draw(st.integers(2, 3))
    lines = ["[lattice]", f"sites = {sites}"]
    lines += [f"{x} {x + 1} {token(_VALUES)}" for x in range(sites - 1)]
    lines += ["[coulomb]", f"u = {token(('inf', 'infinite', '4.0'), ('-inf', 'nan'))}"]
    if draw(st.booleans()):
        lines.append(f"0 1 {token(_VALUES)}")
    if draw(st.booleans()):
        lines += ["[phonon]", f"omega = {token(_VALUES)}", f"cutoff = {token(_INTEGERS)}"]
        lines += [f"{x} {x} {token(_VALUES)}" for x in range(sites)]
    if draw(st.booleans()):
        lines += ["[radiation]", f"L = {token(('4.0',) + _LARGE)}",
                  f"kappa = {token(('1.0',) + _LARGE)}",
                  f"m0 = {token(_VALUES)}", f"cutoff = {token(_INTEGERS)}"]
    return "\n".join(lines) + "\n", any(bad)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(model_files())
def test_model_file_fuzz_exits_cleanly(case):
    text, non_finite = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["ed", "--all", "--model", str(path)])
    assert code in (0, 1, 2), text
    if non_finite:
        assert code == 1, text


_CLI_OPTIONS = {
    "--m": ("0", "1", "1/2", "-1/2", "=-1", "1/3", "nan", "1e400", "=1e5000", "32", "x",
            "-1e-999999999"),
    "--all": (None,),
    "--list": (None,),
    "--cutoff": ("0", "1", "3", "-1", "1.5", "99999999999999999999", "1e300"),
    "--form": ("nagaoka", "holstein", "langfirsov", "radiation", "hubbard", "x"),
    "--u": ("4", "-2", "nan", "inf", "1e308", "-1e308", "x"),
    "--u-list": ("4", "1,1e3", "nan", "inf,2", "1e308", "1e308,-1e308", ",", "x"),
    "--z": ("auto", "0.5,1", "1,0", "1,nan", "inf,1", "1", "x", "1e308,1e-308"),
    "--qgrid": ("1", "3", "0", "-1", "x"),
    "--spacing": (repr(2 ** -0.5), "0.5", "1e10", "1e308", "1e-320", "0", "-1", "nan", "x"),
    "--jobs": ("1", "2"),
}
# per subcommand: option groups each drawn half the time, then options always drawn
_CLI_COMMANDS = {
    "basis": ((("--list",),), ()),
    "connectivity": ((), ()),
    "assemble": ((("--m",), ("--cutoff",), ("--u",)), ("--form",)),
    "ed": ((("--form",), ("--cutoff",), ("--jobs",)), ()),
    "spin": ((("--form",), ("--cutoff",), ("--jobs",)), ()),
    "largeu": ((("--z",), ("--jobs",)), ("--u-list",)),
    "certify": ((("--qgrid", "--spacing"),), ()),
}
_SECTOR_COMMANDS = ("basis", "connectivity", "ed", "certify")


@st.composite
def cli_arguments(draw):
    """A subcommand and options for it, with values from valid, malformed,
    non-finite and huge ones; ``--jobs`` only 1 or 2.  A sector command
    takes one of --m and --all.  One time in four an option is dropped
    (a required one, or one of a pair) or one of another subcommand is
    added."""
    command = draw(st.sampled_from(sorted(_CLI_COMMANDS)))
    groups, always = _CLI_COMMANDS[command]
    options = [o for group in groups if draw(st.booleans()) for o in group] + list(always)
    if command in _SECTOR_COMMANDS:
        options.append(draw(st.sampled_from(["--m", "--m", "--all"])))
    if draw(st.integers(0, 3)) == 3:
        odd = draw(st.sampled_from(sorted(_CLI_OPTIONS)))
        options = [o for o in options if o != odd] if odd in options else [*options, odd]
    argv = [command]
    for option in options:
        value = draw(st.sampled_from(_CLI_OPTIONS[option]))
        if value is None:
            argv.append(option)
        elif value.startswith("="):
            argv.append(option + value)
        else:
            argv += [option, value]
    return argv, draw(st.sampled_from([TRIANGLE, HOLSTEIN_PAIR]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cli_arguments())
def test_cli_argument_fuzz_exits_cleanly(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--model", str(path)])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code:
        failures = [line for line in err.getvalue().splitlines()
                    if line.startswith(("error: ", "numerical failure: "))]
        assert len(failures) == 1 and not out.getvalue(), argv
