"""Host speed calibration for the benchmark's timings.

A shared host runs the same code at different speeds from one moment to
the next.  On a 2-vCPU virtual machine a fixed pure-Python kernel took
either about 170 us or about 325 us, switching within a second, and the
share of slow time drifted over minutes; whole passes of a workload
moved by up to 1.9x with it.  Sums and medians over a run cannot remove
that drift, because it is slower than the run.

So the benchmark times a fixed kernel, which never calls into
``repro``, while it measures, and reports every time at a fixed
reference speed::

    reported = host seconds * REFERENCE_S / mean kernel time nearby

A run on a slow minute and a run on a fast minute then report about the
same figure, while a change to the program moves it as before.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import List

# The kernel's mean time, about what it takes on a 2-vCPU shared VM.
# Reported times are host seconds on a host where the kernel takes this.
REFERENCE_S = 300e-6
INTERVAL_S = 0.02   # how often the sampler interrupts the workload
NEARBY = 20         # fewest samples a scale is averaged over


def kernel() -> int:
    """Fixed interpreter-bound work: tuple keys, dict updates, string
    formatting and a sort, as in the compiler's and simulator's Python
    code."""
    table = {}
    total = 0
    for i in range(500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + len(sorted(table.values()))


class Sampler:
    """Kernel samples taken from a timer signal while the measured calls
    run, and the scales they give."""

    def __init__(self):
        self.at: List[float] = []     # perf_counter() at each sample
        self.took: List[float] = []   # the kernel's time in each sample
        self.busy = 0.0               # seconds spent sampling so far
        self._inside = False

    def sample(self) -> None:
        """Time the kernel once, warmed by an untimed call so that the
        sample does not depend on what the interrupted code left in the
        caches, and with the garbage collector held off."""
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t1 = time.perf_counter()
            kernel()
            t2 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.at.append(t1)
        self.took.append(t2 - t1)
        self.busy += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if not self._inside:  # a slow sample must not nest another
            self._inside = True
            try:
                self.sample()
            finally:
                self._inside = False

    def start(self) -> None:
        """Sample every INTERVAL_S from SIGALRM, in this thread, between
        the interpreter's bytecodes, until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; take one sample if the timer never fired."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.took:
            self.sample()

    def clock(self) -> float:
        """perf_counter() less the time spent sampling."""
        return time.perf_counter() - self.busy

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken
        between perf_counter() times ``start`` and ``end``, or of the
        NEARBY samples closest to that span when it holds fewer."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < NEARBY:
            lo = max(0, min((lo + hi) // 2 - NEARBY // 2,
                            len(self.at) - NEARBY))
            hi = min(len(self.at), lo + NEARBY)
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
