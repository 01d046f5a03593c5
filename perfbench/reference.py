"""A fixed reference kernel that tells how fast the host runs right now.

On a shared host a core's speed changes under the benchmark: on the 2-core
machine the benchmark was tuned on, one fixed kernel took anywhere from
0.8x to 1.5x its median CPU time within a few seconds, the two cores'
speeds did not follow each other, and a 24 s run's mean wall time moved
by up to 1.6x from one run to the next.  No run length averages
that away.  So the benchmark runs this kernel, in its own process, while
it measures -- between its calls into declat and, from a timer signal, every
``INTERVAL`` seconds inside them -- and reports each call's time scaled by
``REF_SECONDS`` over the kernel's mean time during the call: seconds on a
host on which the kernel takes ``REF_SECONDS``.  A change to declat moves
the scaled time as it moves the wall time; a change of host speed moves
both the call and the kernel and cancels.

Time spent in the kernel is left out of :meth:`Reference.clock`, the clock
that every call, span and set-up is timed with.

The kernel mixes what declat's workloads spend their time on: interpreted
Python on integers, sparse matrix-vector products and small dense LAPACK
least-squares solves.  It is single-threaded, as the benchmark pins BLAS
to one thread.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
from scipy import sparse

_clock = time.perf_counter

# The kernel's median time on the 2-core machine the benchmark was tuned on
# (an arbitrary but fixed constant: it sets the scale, not the ratios).
REF_SECONDS = 0.02
INTERVAL = 0.3  # seconds between timer-driven passes (the kernel's duty: ~6%)


class Reference:
    """The kernel, its passes ``(clock() at the pass, seconds)``, and the clock without them.

    Use as a context manager: inside, a timer signal runs a pass every
    ``INTERVAL`` seconds (Python runs the handler between two bytecodes of
    whatever is running, so a long call into declat gets passes too).
    :meth:`sample` runs one pass on demand; :meth:`scale` gives the scale
    of an interval of :meth:`clock`.
    """

    def __init__(self):
        rng = np.random.default_rng(20130413)
        n = 2000
        self.A = (sparse.random(n, n, density=0.003, random_state=rng, format="csr")
                  + sparse.eye(n, format="csr"))
        self.x = rng.random(n)
        self.M = rng.random((40, 12))
        self.paused = 0.0  # seconds spent in passes
        self.passes: list[tuple[float, float]] = []
        self._busy = False

    def kernel(self) -> None:
        s = 0
        for i in range(60000):
            s += (i * i) % 7
        y = self.x
        for _ in range(250):
            y = self.A @ y
            y = y / np.abs(y).max()
        for _ in range(120):
            np.linalg.lstsq(self.M, y[:40], rcond=None)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in passes."""
        while True:
            paused = self.paused
            now = _clock()
            if self.paused == paused:  # no pass ran in between
                return now - paused

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired during a pass
            return
        self._busy = True
        try:
            t0 = _clock()
            self.kernel()
            seconds = _clock() - t0
            self.passes.append((t0 - self.paused, seconds))
            self.paused += seconds
        finally:
            self._busy = False

    def scale(self, start: float, end: float) -> float:
        """``REF_SECONDS`` over the mean pass during [start, end], with the passes just outside."""
        at = [t for t, _ in self.passes]
        lo = max(bisect.bisect_left(at, start) - 1, 0)
        hi = bisect.bisect_right(at, end) + 1
        inside = [seconds for _, seconds in self.passes[lo:hi]]
        return REF_SECONDS * len(inside) / sum(inside)

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
