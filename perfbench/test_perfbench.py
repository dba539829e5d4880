"""Tests of the benchmark itself: every oracle rejects a corrupted output,
failed operations are counted, the host-speed calibration divides out a
uniformly slower host, and the tracer's bookkeeping is right.

Needs numpy only; the lab package is replaced by fakes."""

from __future__ import annotations

import functools
import json
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

import calibrate
import oracles
import tracer as tracing
import workloads
from oracles import OracleError
from worker import Runner, reset_caches


def _ed_payload(rows):
    return json.dumps({"command": "nagaoka ed", "results": rows})


def _ed_row(m, energy=-2.5, **over):
    row = {"m": str(m), "ground_energy": energy, "degeneracy": 1, "gap": 0.75,
           "stot2_expectation": 3.75, "resolved_s": "3/2", "dimension": 4 * 3,
           "sector_dimension": 4 * 3, "boson_dimension": None, "cutoff": None}
    row.update(over)
    return row


def _ladder(**over):
    return _ed_payload([_ed_row(Fraction(1, 2), **over)])


def test_spectral_rows_accepts_a_good_report():
    oracles.spectral_rows(_ladder(), sites=4, sectors=[Fraction(1, 2)], spin=Fraction(3, 2),
                          energy=-2.5)


@pytest.mark.parametrize("corruption", [
    {"degeneracy": 2},
    {"resolved_s": "1/2"},
    {"stot2_expectation": 0.75},
    {"sector_dimension": 11},
    {"ground_energy": -2.4},
    {"gap": 0.0},
])
def test_spectral_rows_rejects_corrupted_fields(corruption):
    with pytest.raises(OracleError):
        oracles.spectral_rows(_ladder(**corruption), sites=4, sectors=[Fraction(1, 2)],
                              spin=Fraction(3, 2), energy=-2.5)


def test_spectral_rows_rejects_split_sectors():
    text = _ed_payload([_ed_row(Fraction(1, 2)), _ed_row(Fraction(3, 2), energy=-2.5 + 1e-6,
                                                         dimension=4, sector_dimension=4)])
    with pytest.raises(OracleError, match="spread"):
        oracles.spectral_rows(text, sites=4, sectors=[Fraction(1, 2), Fraction(3, 2)],
                              spin=Fraction(3, 2))


def test_certificates_reject_a_false_field_and_a_zero_entry():
    good = {"m": "0", "basis": "configuration", "offdiag_sign_ok": True, "irreducible": True,
            "ground_unique": True, "ground_strictly_positive": True, "min_entry": 0.1}
    oracles.certificates(_ed_payload([good]), sectors=[0])
    for bad in ({"ground_unique": False}, {"min_entry": 0.0}):
        with pytest.raises(OracleError):
            oracles.certificates(_ed_payload([{**good, **bad}]), sectors=[0])


def test_orbit_oracle_finds_the_chain3_split():
    _, edges = workloads.lattice_edges("chain", 3)
    assert sorted(oracles.orbit_sizes(3, edges, Fraction(0))) == [3, 3]
    _, edges = workloads.lattice_edges("complete", 4)
    assert oracles.orbit_sizes(4, edges, Fraction(1, 2)) == [12]


def test_connectivity_rejects_a_merged_orbit():
    _, edges = workloads.lattice_edges("chain", 3)
    row = {"m": "0", "dimension": 6, "connected": True, "orbit_sizes": [6]}
    with pytest.raises(OracleError):
        oracles.connectivity(_ed_payload([row]), sites=3, edges=edges, sectors=[Fraction(0)])


def _largeu(us, deltas):
    rows = [f"{u!r},{d!r},{u * d!r}" for u, d in zip(us, deltas)]
    return "\n".join(["u,delta,delta_times_u", *rows]) + "\n"


def test_largeu_law_accepts_one_over_u_and_rejects_a_broken_halving():
    us = (1e2, 1e3, 2e3, 4e3)
    oracles.largeu_table(_largeu(us, [0.3 / u for u in us]), us)
    broken = [0.3 / 1e2, 0.3 / 1e3, 0.3 / 1e3 * 0.7, 0.3 / 4e3]
    with pytest.raises(OracleError, match="delta\\(2U\\)"):
        oracles.largeu_table(_largeu(us, broken), us)
    with pytest.raises(OracleError, match="decreasing"):
        oracles.largeu_table(_largeu(us, [1e-3, 2e-3, 1e-3, 5e-4]), us)


def _triplets(mat, header):
    rows, cols = np.nonzero(mat)
    lines = [json.dumps(header), f"{mat.shape[0]} {mat.shape[1]} {len(rows)}"]
    lines += [f"{r + 1} {c + 1} {float(mat[r, c].real)!r} {float(mat[r, c].imag)!r}"
              for r, c in zip(rows, cols)]
    return "\n".join(lines) + "\n"


def test_export_oracle_rejects_a_dropped_triplet():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = a + a.conj().T
    header = {"form": "langfirsov", "m": "1/2", "dimension": 4}
    ed = _ed_payload([{"m": "1/2", "ground_energy": float(np.linalg.eigvalsh(mat)[0])}])
    text = _triplets(mat, header)
    oracles.langfirsov_export(text, ed, dimension=4)
    lines = text.splitlines()
    count = int(lines[1].split()[2])
    for drop in (3, 2):   # an off-diagonal entry, then the (1, 1) diagonal entry
        kept = [ln for i, ln in enumerate(lines) if i > 1 and i != drop]
        rest = [lines[0], f"4 4 {count - 1}", *kept]
        with pytest.raises(OracleError):
            oracles.langfirsov_export("\n".join(rest) + "\n", ed, dimension=4)


def test_hubbard_oracle_matches_a_known_spectrum():
    # two sites, one electron: the hopping eigenvalues +-t, twice (spin)
    t = np.array([[0.0, 0.8], [0.8, 0.0]])
    assert np.allclose(np.linalg.eigvalsh(oracles.hubbard_matrix(t, 4.0)), [-0.8, -0.8, 0.8, 0.8])


class _Cli:
    """Fake CLI: op "ok" prints a payload, "raise" raises, "exit" returns 1,
    "bad" prints a payload its check rejects."""

    def __call__(self, argv):
        kind = argv[0]
        if kind == "raise":
            raise RuntimeError("boom")
        if kind == "exit":
            return 1
        print("bad" if kind == "bad" else "good")
        return 0


def _check(out):
    if out.strip() != "good":
        raise OracleError("not good")


def test_ops_failed_counts_raising_exiting_and_rejected_operations():
    ops = (("ok",), ("raise",), ("exit",), ("bad",))
    checks = tuple(workloads.Check(ops=(i,), fn=_check) for i in range(len(ops)))
    runner = Runner(workloads.Workload(name="fake", ops=ops, checks=checks), _Cli())
    runner.run()
    runner.run()
    assert runner.attempted == 8
    assert len(runner.failures) == 6
    reasons = " ".join(f["reason"] for f in runner.failures)
    assert "RuntimeError: boom" in reasons and "exit code 1" in reasons and "not good" in reasons


def test_pass_wall_is_the_sum_of_operation_times_and_after_op_sees_each():
    ops = (("ok",), ("ok",), ("ok",))
    runner = Runner(workloads.Workload(name="fake", ops=ops, checks=()), _Cli())
    seen = []
    wall = runner.run(after_op=seen.append)
    assert len(seen) == 3 and wall == pytest.approx(sum(seen))
    assert [t[0] for t in runner.op_times] == seen


@pytest.fixture
def fake_clock(monkeypatch):
    """Kernels that advance a fake clock by their reference time × speed."""
    clock = {"now": 0.0, "speed": 1.0}

    def kernel(ref):
        def run():
            clock["now"] += ref * clock["speed"]
        return run

    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: clock["now"])
    monkeypatch.setattr(calibrate, "KERNELS",
                        tuple((name, kernel(ref)) for name, ref in calibrate.REF_S.items()))
    return clock


@pytest.mark.parametrize("speed", [1.0, 1.5, 2.0])
def test_calibration_runs_its_share_and_measures_a_uniform_slowdown(fake_clock, speed):
    fake_clock["speed"] = speed
    calib = calibrate.Calibrator()
    calib.fill(0.2)
    calib.fill(0.1)
    busy, owed = sum(calib.busy.values()), calibrate.SHARE * 0.3
    assert owed <= busy < owed + max(calibrate.REF_S.values()) * speed
    assert calib.slowdown() == pytest.approx(speed)
    calib.reset()
    assert calib.slices == 0 and calib.slowdown() == pytest.approx(speed)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("sector-ladder", 7, tmp_path / "a")
    b = workloads.build("sector-ladder", 7, tmp_path / "b")
    c = workloads.build("sector-ladder", 8, tmp_path / "c")
    assert len(a.ops) == len(b.ops) == 7
    files = lambda d: sorted(p.read_text() for p in d.iterdir())  # noqa: E731
    assert files(tmp_path / "a") == files(tmp_path / "b") != files(tmp_path / "c")


@pytest.fixture
def fake_package():
    """A two-module package: ``low.work`` imported by name into ``high``."""
    pkg = types.ModuleType("fakelab")
    low = types.ModuleType("fakelab.low")
    high = types.ModuleType("fakelab.high")

    def work(n):
        return sum(range(n))
    work.__module__ = "fakelab.low"
    low.work = work

    def run(n):
        return high.work(n) + high.work(n)
    run.__module__ = "fakelab.high"
    high.work, high.run = work, run
    mods = {"fakelab": pkg, "fakelab.low": low, "fakelab.high": high}
    sys.modules.update(mods)
    yield high
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_sees_calls_through_imported_names_and_restores(fake_package):
    original = fake_package.work
    tr = tracing.Tracer(package="fakelab", layers=("low", "high"))
    tr.install()
    try:
        assert fake_package.run(1000) == 2 * sum(range(1000))
    finally:
        tr.uninstall()
    assert fake_package.work is original
    names = [s.name for s in tr.spans]
    assert names == ["high.run", "low.work", "low.work"]
    assert [s.parent for s in tr.spans] == [-1, 0, 0]


def test_self_time_is_duration_minus_child_coverage():
    spans = [tracing.Span("a.f", 0.0, 10.0), tracing.Span("b.g", 1.0, 4.0, parent=0),
             tracing.Span("b.h", 5.0, 6.0, parent=0), tracing.Span("a.f", 2.0, 3.0, parent=1)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing._outermost(spans, {"a.f"}) == 10.0


def test_cache_reset_empties_lru_caches_and_module_cache_mappings(fake_package):
    low = sys.modules["fakelab.low"]
    calls = []

    def basis(n):
        calls.append(n)
        return n
    basis.__module__ = "fakelab.low"
    low.basis = functools.lru_cache(maxsize=None)(basis)
    low._GRAPH_CACHE = {"model": "graph"}
    low.basis(3)
    low.basis(3)
    reset_caches("fakelab")
    low.basis(3)
    assert calls == [3, 3]
    assert low._GRAPH_CACHE == {}
