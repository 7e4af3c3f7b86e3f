"""Machine-speed calibration, so that timings survive a shared host's slow spells.

The host this benchmark runs on is shared: for seconds to minutes at a time the
same code runs up to twice as slow, inside the process's own CPU time (it is not
stolen time, so CPU clocks do not help).  A run of a few tens of seconds falls
in one such spell or another, and its raw times spread by far more than a code
change would move them.

So the benchmark times a fixed calibration kernel alongside the work: once
before and once after every op, and every ``PERIOD`` seconds during it, from a
``SIGALRM`` handler (Python runs the handler between bytecodes in the main
thread, so the op is paused, not disturbed).  The machine's speed also flips
within a second, so the samples are dense: replaying recorded samples with
only every second or every fourth one kept widened the spread of reference
pass times by a quarter and by more than double.  The kernel mixes the kinds
of work gil does: a small-array Metropolis loop, stencil updates on a
16 x 16 field and a plain interpreter loop, in time shares of about 2 : 1 : 1
when the machine is quiet.  Slow spells hit these parts differently, and no
one of them tracks every op; the shares were chosen on the ops of all three
workloads, timed over nine minutes of slow and fast spells.

An op's reference time is its raw time times ``REF_S`` over the kernel's time,
averaged over the samples taken around and during it (the mean speed, not the
mean kernel time): the time the op would take while the kernel takes ``REF_S``.  Time
spent in the handler is taken out of the op's raw time.

The kernel does not use gil, and only a benchmark change may change it, so a
change to gil moves reference times as it moves raw times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD = 0.1  # seconds between samples inside an op
# the kernel's time on a quiet spell of a 2-core Intel Xeon VM (python 3.11,
# numpy 2.4); any fixed value would do, this one keeps reference times close
# to raw times on that machine
REF_S = 0.0055


def kernel() -> float:
    """A fixed amount of gil-like work; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(20260101)
    x = np.zeros(15)
    e = 0.0
    for _ in range(240):
        y = x + 0.1 * rng.standard_normal(15)
        ey = float(np.sum(1.0 - np.cos(np.diff(y))) + 0.5 * (y @ y))
        if math.log(rng.random()) < e - ey:
            x, e = y, ey
    f = rng.standard_normal((16, 16))
    for _ in range(60):
        g = np.roll(f, 1, axis=0) - f
        f = 0.9 * f + 0.01 * np.sin(g) + 0.01 * (np.roll(f, 1, axis=1) - f)
        e += float(np.sum(g * g))
    s = 0
    for i in range(24_000):
        s += (i * i) % 7
    return e + s


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def reference_time(raw_s: float, samples: list[float]) -> float:
    """``raw_s`` at the speed where the kernel takes REF_S.

    The samples are evenly spread over the op, so the mean of REF_S / sample is
    the mean speed-up the op's time has to be scaled by.
    """
    return raw_s * statistics.fmean(REF_S / s for s in samples)


class Meter:
    """Samples the kernel before, during and after one timed op."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0  # seconds spent in the handler during the op

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self.samples = [sample()]
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
