"""Host-speed calibration: fixed slices of the benchmark's own work.

On a shared host the speed a process gets drifts, by up to about 1.5x over a
few minutes and faster still within seconds, so raw wall times of the same
code spread more from run to run than any useful bound.  The benchmark
therefore runs small fixed kernels between the program's operations, for a
set share of the time the operations took, and reports wall time at a
reference host speed:

    wall_ref = wall / slowdown,   slowdown = geomean_k(slice_k / REF_S[k])

where ``slice_k`` is the mean time of one slice of kernel ``k`` over the same
stretch of the run.  The kernels cover what the program spends its time on: interpreter
work (dict and integer operations, as in enumeration and BFS), a small LAPACK
eigensolve, and a streaming pass over an array larger than the CPU caches.
They never touch the program, so a slower program reads slower while a slower
host does not.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Calibration seconds per second of program time: enough slices to average
# out sub-second swings without halving the passes a run holds.
SHARE = 0.5

# Mean seconds of one slice of each kernel at the reference speed: the fast
# phases of a 2-vCPU shared VM (Python 3.11, numpy 2.4, OpenBLAS, 1 thread).
REF_S = {"python": 4.0e-3, "lapack": 1.0e-3, "memory": 6.0e-3}

_RNG = np.random.default_rng(0)
_SYM = _RNG.standard_normal((120, 120))
_SYM = _SYM + _SYM.T
_BIG = np.ones(1 << 21)


def _python() -> int:
    seen: dict[int, int] = {}
    for s in range(6000):
        x = (s * 2654435761) & 0xFFFF
        seen[x] = seen.get(x, 0) + bin(x).count("1")
    return len(seen)


def _lapack() -> float:
    return float(np.linalg.eigvalsh(_SYM)[0])


def _memory() -> float:
    return float((_BIG * 1.0001).sum())


KERNELS = (("python", _python), ("lapack", _lapack), ("memory", _memory))


def slowdown(busy: dict, count: dict) -> float:
    """Geometric mean over kernels of mean slice time / reference slice time,
    from each kernel's total busy seconds and slice count."""
    logs = [math.log(busy[k] / count[k] / REF_S[k]) for k in REF_S]
    return math.exp(sum(logs) / len(logs))


class Calibrator:
    """Runs kernel slices round robin and measures the host's slowdown."""

    def __init__(self):
        for _, fn in KERNELS:       # first calls load code and touch pages
            fn()
        self.reset()

    def reset(self):
        self.busy = {name: 0.0 for name, _ in KERNELS}
        self.count = {name: 0 for name, _ in KERNELS}
        self.owed = 0.0
        self.slices = 0
        self.cpu = 0.0              # CPU seconds the slices used

    def _slice(self):
        name, fn = KERNELS[self.slices % len(KERNELS)]
        t0, c0 = time.perf_counter(), time.process_time()
        fn()
        dt = time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.busy[name] += dt
        self.count[name] += 1
        self.slices += 1
        return dt

    def fill(self, seconds: float):
        """Run slices for ``SHARE`` of ``seconds``; a remainder carries over."""
        self.owed += SHARE * seconds
        while self.owed > 0:
            self.owed -= self._slice()

    def slowdown(self) -> float:
        """Slowdown over the slices since ``reset``; every kernel has run at
        least once when it returns."""
        while min(self.count.values()) == 0:
            self._slice()
        return slowdown(self.busy, self.count)
