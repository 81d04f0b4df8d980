"""Timing that cancels the machine's own speed drift.

On a shared machine the same operation can take 40% longer from one minute
to the next while the program does exactly the same work.  A Speedometer
times a fixed reference kernel, which shares no code with ggsver, right
before and right after each timed operation and every INTERVAL seconds
during it (from a SIGALRM handler), and scales the operation's time by
SECONDS / (mean kernel time):

    scaled = raw * SECONDS / mean(kernel samples around and during the op)

so the figures read as seconds on a machine that runs the kernel in SECONDS.
A change to ggsver moves the scaled time by the same factor as the raw time;
a change in machine speed moves the kernel with it and cancels.  The kernel
does what the program's hot path does: fancy indexing of image arrays, a
comparison with the identity, flatnonzero and small dict writes; and every
50 steps it fills a fresh 1 MiB array, so that memory traffic, which the
large chains of the deep workload depend on, weighs in the kernel too.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SECONDS = 0.005  # the kernel's time on the reference machine, uncontended
INTERVAL = 0.5  # seconds between samples inside a long operation
DEGREE = 729
STEPS = 1000
FILL = 131072  # float64s: 1 MiB


class Speedometer:
    def __init__(self):
        self.perm = np.random.default_rng(0).permutation(DEGREE)
        self.ident = np.arange(DEGREE)
        self.box: dict = {}
        self._during: list[float] = []
        self.samples: list[float] = []  # every kernel time, in order
        self.kernel()  # first calls into numpy are slower
        self.samples.clear()

    def kernel(self) -> float:
        """Seconds for one pass of the reference kernel."""
        perm, ident, box = self.perm, self.ident, self.box
        cur = perm.copy()
        t0 = time.perf_counter()
        for i in range(STEPS):
            cur = perm[cur]
            box[i & 63] = np.flatnonzero(cur != ident).size
            if i % 50 == 0:
                box[64] = np.ones(FILL)
        secs = time.perf_counter() - t0
        self.samples.append(secs)
        return secs

    def _tick(self, signum, frame) -> None:
        self._during.append(self.kernel())

    def scale(self, raw: float, samples) -> float:
        return raw * SECONDS / statistics.fmean(samples)

    def measure(self, fn, *args):
        """fn(*args) timed: (result, raw seconds, scaled seconds).  Kernel
        passes inside the operation are taken out of its raw time."""
        before = self.kernel()
        self._during = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        during = self._during
        after = self.kernel()
        raw = t1 - t0 - sum(during)
        return out, raw, self.scale(raw, [before, *during, after])
