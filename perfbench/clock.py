"""Operation timing scaled to a reference machine speed.

On a shared virtual machine the same computation can run at two speeds for
tens of seconds at a time: reconstructing one fixed point took 66 ms or 115 ms
on the 2-vCPU Xeon VM this benchmark was developed on, so raw times of two runs
differ by up to 1.7x with nothing changed. To make runs comparable, a SIGALRM
timer runs a fixed calibration kernel (numpy on small arrays plus dataclass
arithmetic, the mix ttrally itself runs) every ``INTERVAL_S`` while the
benchmark runs, and each timed operation runs it first unless a sample is
less than ``MIN_GAP_S`` old. An operation's scaled time is its raw time
multiplied by ``KERNEL_REF_S`` over the mean kernel time of the samples
taken during it and the ``NEAREST`` samples on either side. Raw times exclude the
kernel's own runs. On that VM, scaling cut the spread of
5-second medians from +-28 % (raw) to +-4 % while the speed switched.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.2  # timer period; operations also take a sample first if none is this recent:
MIN_GAP_S = 0.02
NEAREST = 3  # samples on either side of an operation that calibrate it, with those during it
KERNEL_REF_S = 0.0023  # the kernel's time on the development VM at its faster speed


@dataclass
class _P:
    x: float
    y: float
    z: float

    def __add__(self, o: "_P") -> "_P":
        return _P(self.x + o.x, self.y + o.y, self.z + o.z)

    def scale(self, k: float) -> "_P":
        return _P(self.x * k, self.y * k, self.z * k)


_GRID = np.linspace(0.0, 1.0, 16)


def kernel() -> float:
    """Fixed work, independent of ttrally, that calibrates the machine's speed."""
    acc = 0.0
    p, q = _P(0.0, 0.0, 0.0), _P(0.1, 0.2, 0.3)
    for i in range(400):
        acc += float(np.expm1(-_GRID * (1 + i % 7)) @ _GRID)
        for _ in range(4):
            p = p + q.scale(math.exp(-1e-3 * i))
    return acc + p.x


@dataclass
class Op:
    start: float = 0.0  # perf_counter at start and end
    end: float = 0.0
    raw: float = 0.0  # seconds in the operation, calibration runs excluded


class Clock:
    """Times operations; while entered, samples the calibration kernel."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each kernel sample ended
        self.kernel_s: list[float] = []
        self.spent = 0.0  # seconds spent in kernel samples so far
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> "Clock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def program_time(self) -> float:
        """perf_counter without the time spent in kernel samples."""
        return time.perf_counter() - self.spent

    @contextmanager
    def op(self):
        if time.perf_counter() - self.times[-1] > MIN_GAP_S:
            self._sample()
        rec = Op(start=time.perf_counter())
        spent0 = self.spent
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.raw = rec.end - rec.start - (self.spent - spent0)

    def scaled(self, rec: Op) -> float:
        """The operation's time at the reference speed."""
        lo = bisect.bisect_left(self.times, rec.start)
        hi = bisect.bisect_right(self.times, rec.end)
        around = self.kernel_s[max(lo - NEAREST, 0) : hi + NEAREST]
        # The mean tracks an operation that spans both speeds, and over several
        # samples keeps one sample's jitter out of a short operation's time.
        # Samples the host interrupted (over twice the median) are dropped.
        typical = statistics.median(around)
        return rec.raw * KERNEL_REF_S / statistics.fmean(k for k in around if k <= 2 * typical)

    def reference_speed(self) -> float:
        """Median kernel speed over the whole run relative to the reference."""
        return KERNEL_REF_S / statistics.median(self.kernel_s)
