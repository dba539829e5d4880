"""Acceptance gate: one test per release criterion, each printing its
pass/fail line.  The same checks back the CLI ``reproduce`` command."""

import io
import re
from types import SimpleNamespace

import pytest

from nagaoka.acceptance import (
    CRITERIA,
    RUNTIME_LIMITS,
    CriterionResult,
    run_acceptance,
    run_criterion,
)


@pytest.mark.parametrize("number", sorted(CRITERIA), ids=[
    f"{n:02d}-{CRITERIA[n][0]}" for n in sorted(CRITERIA)])
def test_criterion(number):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} [{number:2d}] {result.name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"


def _ticking(monkeypatch, *ticks):
    """``acceptance.time.perf_counter`` returning ``ticks`` in turn."""
    from nagaoka import acceptance

    clock = iter(ticks)
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))


def test_a_criterion_that_raises_fails_with_its_exception(monkeypatch):
    def broken():
        raise RuntimeError("the solver gave up")

    monkeypatch.setitem(CRITERIA, 3, ("broken", broken))
    _ticking(monkeypatch, 10.0, 10.5)
    assert run_criterion(3) == CriterionResult(number=3, name="broken", passed=False,
                                               detail="RuntimeError: the solver gave up",
                                               seconds=0.5)


def test_a_criterion_over_its_runtime_limit_fails(monkeypatch):
    limit = RUNTIME_LIMITS[2]
    monkeypatch.setitem(CRITERIA, 2, ("slow", lambda: "every check held"))
    _ticking(monkeypatch, 0.0, limit + 0.5, 0.0, limit)
    stream = io.StringIO()
    results, passed = run_acceptance([2], stream=stream)
    assert not passed and not results[0].passed
    assert results[0].detail == (f"runtime {limit + 0.5:.1f}s exceeds the {limit:.0f}s "
                                 f"budget; every check held")
    assert stream.getvalue().splitlines() == [
        f"FAIL [ 2] slow ({limit + 0.5:.2f}s): {results[0].detail}", "CRITERIA FAILED (0/1)"]
    assert run_criterion(2).passed              # exactly at the limit is within it


def test_run_acceptance_refuses_unknown_criteria_before_running_any(monkeypatch):
    def forbidden():
        raise AssertionError("no criterion runs when one requested is unknown")

    monkeypatch.setitem(CRITERIA, 1, ("forbidden", forbidden))
    with pytest.raises(ValueError, match=re.escape("unknown criteria [0, 13]; valid: [1, 2")):
        run_acceptance([13, 1, 0], stream=io.StringIO())
