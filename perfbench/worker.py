"""One workload in one fresh process: a closed loop of in-process CLI calls.

Run by ``run.py``; prints one JSON line with the run's numbers.  A pass runs
the workload's operations one after another (one client, ``--jobs 1``),
each as ``nagaoka.cli.main(argv)`` with its output captured.  Every pass
starts with the package caches cleared, as every CLI invocation does, so
there is no warm-up pass.  Passes repeat until the next one would overrun
``--seconds``.  Between the operations of an untraced pass, calibration
slices (``calibrate.py``) run for half as long as the operations took; the
reported ``wall_ref_s`` is the mean pass wall time divided by the host
slowdown measured over all the run's slices, so every second of program time
weighs the same against the host speed of its run.

The first pass is judged by the oracles; later passes must reproduce its
payloads byte for byte.  An operation fails on a non-zero exit, an
exception, or a failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads
from oracles import OracleError


def run_op(main, argv) -> tuple[str, str]:
    """(stdout, error) of one in-process CLI call; error is empty on success."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except (Exception, SystemExit) as exc:   # a raising operation is a failed operation
        return out.getvalue(), f"{type(exc).__name__}: {exc}"
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), ""


def judge(workload, outputs, errors) -> dict[int, str]:
    """op index -> reason, for every failed operation of a pass."""
    failed = {i: e for i, e in enumerate(errors) if e}
    for check in workload.checks:
        if any(i in failed for i in check.ops):
            continue
        try:
            check.fn(*(outputs[i] for i in check.ops))
        except OracleError as exc:
            for i in check.ops:
                failed.setdefault(i, f"check: {exc}")
    return failed


class Runner:
    """Runs passes of one workload and judges their outputs."""

    def __init__(self, workload, main):
        self.workload, self.main = workload, main
        self.reference: list[str] | None = None
        self.verdict: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.op_times: list[list[float]] = [[] for _ in workload.ops]
        self.payload_bytes = 0

    def run(self, on_op=None, after_op=None) -> float:
        """Wall time of one pass: the sum of its operations' wall times.
        ``on_op(i)`` runs before and ``after_op(seconds)`` after each
        operation, outside the timed spans."""
        outputs, errors = [], []
        wall = 0.0
        for i, argv in enumerate(self.workload.ops):
            if on_op:
                on_op(i)
            t0 = time.perf_counter()
            out, err = run_op(self.main, argv)
            dt = time.perf_counter() - t0
            self.op_times[i].append(dt)
            wall += dt
            outputs.append(out)
            errors.append(err)
            if after_op:
                after_op(dt)
        self.payload_bytes = sum(len(o.encode("utf-8")) for o in outputs)
        self._record(outputs, errors)
        return wall

    def _record(self, outputs, errors):
        if self.reference is None:
            self.reference = outputs
            self.verdict = failed = judge(self.workload, outputs, errors)
        else:
            failed = {i: e for i, e in enumerate(errors) if e}
            for i, out in enumerate(outputs):
                if i in self.verdict:
                    failed.setdefault(i, self.verdict[i])
                elif out != self.reference[i]:
                    failed.setdefault(i, "payload differs from the first pass")
        self.attempted += len(outputs)
        for i, reason in sorted(failed.items()):
            self.failures.append({"op": " ".join(self.workload.ops[i]), "reason": reason})


def reset_caches(package: str):
    """Clear the package's process-wide caches, as a fresh CLI process has them:
    every ``lru_cache`` defined in the package and every module-level mapping
    whose name says it is a cache (such as ``sector._GRAPH_CACHE``)."""
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                if getattr(obj, "__module__", "").startswith(package):
                    obj.cache_clear()
            elif "cache" in attr.lower() and callable(getattr(obj, "clear", None)):
                obj.clear()
    gc.collect()


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None when it cannot be read."""
    import ctypes
    import glob
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
    }


def measure(args, root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import nagaoka
    import nagaoka.cli as cli
    src = (root / "src").resolve()
    if src not in Path(nagaoka.__file__).resolve().parents:
        raise SystemExit(f"imported nagaoka from {nagaoka.__file__}, not from {src}")

    inputs = Path(".bench_out") / "inputs" / f"{args.workload}-{args.seed}"
    workload = workloads.build(args.workload, args.seed, inputs)
    # looked up per call, so traced passes reach the patched cli.main
    runner = Runner(workload, lambda argv: cli.main(argv))
    budget = float(args.seconds)

    calib = calibrate.Calibrator()
    busy = {name: 0.0 for name in calibrate.REF_S}
    count = {name: 0 for name in calibrate.REF_S}
    walls, refs, slowdowns, spent, traced_walls, cpu, layers, span_log = [], [], [], [], [], [], [], []
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        crossover = getattr(sys.modules.get("nagaoka.spectral"), "DENSE_CROSSOVER", 2048)

    while True:
        reset_caches("nagaoka")
        if tracer is not None and len(traced_walls) < len(walls):
            tracer.reset()
            tracer.install()
            try:
                wall = runner.run(on_op=lambda i: setattr(tracer, "op", i))
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            metrics = tracing.layer_metrics(tracer, wall, crossover)
            metrics["cli.payload_bytes"] = runner.payload_bytes
            layers.append(metrics)
            span_log.append(list(tracer.spans))
        else:
            calib.reset()
            t0, c0 = time.perf_counter(), os.times()
            wall = runner.run(after_op=calib.fill)
            slowdown = calib.slowdown()
            for name in busy:
                busy[name] += calib.busy[name]
                count[name] += calib.count[name]
            c1 = os.times()
            spent.append(time.perf_counter() - t0)
            cpu.append((c1.user - c0.user) + (c1.system - c0.system) - calib.cpu)
            walls.append(wall)
            slowdowns.append(slowdown)
            refs.append(wall / slowdown)
        if tracer is None:
            nxt = statistics.median(spent)
        elif traced_walls:
            nxt = statistics.median(traced_walls if len(traced_walls) < len(walls) else spent)
        else:
            continue
        if sum(spent) + sum(traced_walls) + nxt > budget:
            break

    wall = statistics.median(walls)
    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_slowdowns": slowdowns,
        "host_slowdown": calibrate.slowdown(busy, count),
        "pass_walls_ref_s": refs,
        "op_median_s": [statistics.median(t) for t in runner.op_times],
        "ops": [" ".join(op) for op in workload.ops],
        "environment": environment(),
    }
    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {"wall_ref_s": statistics.fmean(walls) / result["host_slowdown"],
                             "peak_rss_mb": rss_kb / 1024.0}
    else:
        per_layer = {key: statistics.fmean(m[key] for m in layers) for key in layers[0]}
        traced_wall = statistics.median(traced_walls)
        per_layer["process.cpu_s"] = statistics.median(cpu)
        per_layer["process.wall_s"] = wall
        per_layer["process.host_slowdown"] = result["host_slowdown"]
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - wall
        result["metrics"] = per_layer
        result["traced_passes"] = len(traced_walls)
        out_dir = root / ".bench_out"
        tracing.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl", span_log)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = measure(args, Path.cwd())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
