"""How fast the host runs this process, sampled while the workload runs.

On a shared host the CPU a process gets can run 20-50% slower for stretches
of seconds to minutes, and process CPU time slows with it, so a raw time
spreads as much from one run to the next.  A Sampler runs a small fixed
pure-Python kernel every PERIOD_S seconds from a SIGALRM handler, in the
workload's own thread, so each sample runs at the speed the workload has at
that moment.  A time scaled by NOMINAL_KERNEL_S over the median sample of
the same interval reads as seconds on a host where the kernel takes
NOMINAL_KERNEL_S: the reference speed.  The handler's own time is kept apart,
so that the timed blocks it lands in can leave it out.

Python runs a signal handler between bytecodes of the main thread, so a long
call into C code delays the next sample but is never interrupted by it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# A round figure within the kernel's range (0.35-0.6 ms) on the 2-vCPU host
# the benchmark was written on, so reference seconds stay near wall seconds.
NOMINAL_KERNEL_S = 0.0005


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic, a dict store, a loop."""
    s = 0
    d = {}
    for i in range(3000):
        s = (s * 31 + i) % 1000003
        d[i & 255] = s
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def median(values) -> float:
    """Median without the statistics module, which set-up probes would
    otherwise load ahead of the imports they time."""
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def to_reference(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took kernel_s, at the reference speed."""
    return seconds * NOMINAL_KERNEL_S / kernel_s


# SIGALRM has one handler per process, so at most one Sampler is installed;
# timed blocks read its handler time from here.
_active: Sampler | None = None


def handler_seconds() -> float:
    """Time the active Sampler's handler has taken so far (0 with none)."""
    return _active.spent if _active is not None else 0.0


class Sampler:
    """Samples the kernel's time every PERIOD_S seconds while installed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        global _active
        if _active is not None:
            raise RuntimeError("a Sampler is already installed")
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        _active = self
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None
        return False

    def mark(self) -> int:
        return len(self.samples)

    def kernel_s_since(self, mark: int) -> float:
        """Median kernel time over the samples taken since ``mark``."""
        return median(self.samples[mark:])
