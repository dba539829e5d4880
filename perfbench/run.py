"""Benchmark entry point: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload sector-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is used from source
(``src/nagaoka``); nothing is installed.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics from a separate traced run.  The full record (environment,
pass times, per-operation medians, failures) goes to
``.bench_out/results/``.  Exits non-zero without a result line when the
program is missing or the worker fails or overruns.

Times are reported at a reference host speed.  The worker measures the host
with calibration slices (see ``calibrate.py``).  Start-up is measured in
pairs: each fresh interpreter that imports ``nagaoka.cli`` is followed by one
that imports only the same third-party modules, and ``setup_s`` is the
median ratio of the two times, scaled by the reference start-up time.  BLAS
runs one thread in every process the benchmark starts, so the program and
the calibration slices run on the same single core.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # inherited by the worker and the import probes

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_PAIRS = 4            # taken before and again after the worker
READY = "sys.stdout.write('ready\\n'); sys.stdout.flush()"
PROBE = "import sys; sys.path.insert(0, 'src'); import nagaoka.cli; " + READY
# The same interpreter start and third-party imports without the program, and
# its start-up seconds at the reference speed (2-vCPU VM, Python 3.11).
REFERENCE = "import sys, numpy, scipy.sparse, scipy.sparse.linalg, scipy.sparse.csgraph; " + READY
REFERENCE_S = 0.40


class BenchError(Exception):
    """The run cannot produce a result."""


def setup_sample(root: Path, timeout: float, code: str = PROBE) -> float:
    """Seconds from starting a fresh interpreter to ``code`` having run
    (by default, to ``nagaoka.cli`` imported)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=root, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"import probe failed: {err.strip()[-500:]}")
    return elapsed


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(root: Path, args, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker overran {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("worker printed no result") from None


def measure(root: Path, args) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (root / "src" / "nagaoka" / "cli.py").is_file():
        raise BenchError("no program to measure: src/nagaoka/cli.py is missing")
    start = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    setup, reference = [], []

    def take_setup_pairs():
        for _ in range(SETUP_PAIRS):
            setup.append(setup_sample(root, remaining()))
            reference.append(setup_sample(root, remaining(), REFERENCE))

    if not args.trace:
        take_setup_pairs()
    record = run_worker(root, args, remaining())
    if not args.trace:
        take_setup_pairs()
    measured = dict(record.pop("metrics"))
    if setup:
        measured["setup_s"] = REFERENCE_S * statistics.median(
            s / r for s, r in zip(setup, reference))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"worker did not measure {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, commit=git_commit(root), setup_samples_s=setup,
                  reference_samples_s=reference,
                  result=result)
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    try:
        result, record = measure(root, args)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    out = root / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
