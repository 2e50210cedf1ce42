"""The machine's speed during a round, sampled so that times can be compared
across rounds.

On a shared 2-core virtual machine the same round took between 25 s and
33 s within a few minutes, and a fixed chunk of library work slowed by up
to 1.7x for stretches of seconds.  So every round runs a small fixed
kernel (random reads from an 8 MB table) from a SIGALRM handler every
`INTERVAL_S`, and records how long it took.  An operation's reported time
is its wall time divided by its slowdown, the mean kernel time during the
operation over REFERENCE_KERNEL_S: the time it would have taken at the
reference speed.  Raw wall times are reported too.  The kernel costs about
0.2 % of a round, and its table adds 8 MB to every round's resident set.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
REFERENCE_KERNEL_S = 0.0003      # the kernel's time on a quiet core of that machine

# an 8 MB table read at random: the library's hot loops are gathers from
# tables larger than the core's caches, and such reads slow under
# contention in proportion to them, where an in-cache loop slows less
_TABLE = np.arange(1 << 20, dtype=np.int64)
_INDEX = np.random.default_rng(0).integers(0, len(_TABLE), 8192)
_OUT = np.empty(len(_INDEX), dtype=np.int64)


def kernel() -> float:
    """Time one pass of the fixed kernel.  It allocates nothing, so it does
    not disturb the heap and the peak RSS of the round."""
    t = time.perf_counter()
    for _ in range(12):
        np.take(_TABLE, _INDEX, out=_OUT)
    return time.perf_counter() - t


def calibrate(n: int = 20) -> float:
    """Slowdown from n kernel passes in a row, for spans too short to sample."""
    return sum(kernel() for _ in range(n)) / n / REFERENCE_KERNEL_S


CAPACITY = 4096                  # samples: 13 minutes at INTERVAL_S


class SpeedProbe:
    def __init__(self):
        # preallocated, so sampling allocates nothing on the heap
        self._at = np.zeros(CAPACITY)          # sample start times, ascending
        self._took = np.zeros(CAPACITY)
        self._n = 0

    def _sample(self, signum, frame):
        if self._n < CAPACITY:
            self._at[self._n] = time.perf_counter()
            self._took[self._n] = kernel()
            self._n += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean kernel time over [t0, t1] (all samples when the interval holds
        none) relative to the reference; 1.0 is the reference speed."""
        at, took = self._at[: self._n], self._took[: self._n]
        lo = 0 if t0 is None else int(np.searchsorted(at, t0, "left"))
        hi = self._n if t1 is None else int(np.searchsorted(at, t1, "right"))
        sel = took[lo:hi] if hi > lo else took
        if not len(sel):
            return 1.0
        return float(sel.mean()) / REFERENCE_KERNEL_S
