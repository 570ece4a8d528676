"""Machine-speed calibration interleaved with the measured work.

On a shared host the effective CPU speed drifts by tens of percent within
minutes (co-tenant load, frequency changes), so raw wall times of the same
work differ more between runs than the changes the benchmark must detect.
A ``SIGALRM`` timer interrupts the run every :data:`INTERVAL_S` and times a
fixed kernel (in this file, so no change to the package can speed it up).  A measured section's time is then

* *raw*: its wall time minus the time the kernel itself took inside it;
* *reference*: raw x ``REFERENCE_KERNEL_S`` / the mean kernel time around
  the section — the seconds the section would take on a host where the
  kernel runs in exactly ``REFERENCE_KERNEL_S``.

Both are printed; the gated metrics are the reference ones.  Handlers run
between bytecodes of the main thread, so a long native call delays a sample
but never splits it.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

INTERVAL_S = 0.025

#: The kernel's duration on the reference host (a 2-vCPU Xeon VM at
#: 2.1 GHz in a quiet period).  Only scales the reference times.
REFERENCE_KERNEL_S = 1.2e-3

#: A section with fewer samples inside it borrows the nearest ones.
MIN_SAMPLES = 10


_WORDS = np.arange(4096, dtype=np.int64)


def _kernel() -> int:
    """Fixed work in the program's two modes: interpreter-bound arithmetic
    and small-array numpy calls.  It holds no data large enough to fall out
    of the caches, so the interrupted work cannot slow it by evicting it."""
    total = 0
    for i in range(8_000):
        total += i * i % 7
    for i in range(40):
        hits = np.flatnonzero((_WORDS & 7) == (i & 7))
        total += int(_WORDS[hits[:64]].sum())
    return total


class Calibrator:
    """Runs the kernel on a timer and converts section times."""

    def __init__(self) -> None:
        #: (start time, duration) of every kernel sample.
        self.samples: List[Tuple[float, float]] = []
        self.kernel_total_s = 0.0
        self._running = False

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.kernel_total_s += elapsed

    def start(self) -> None:
        _kernel()  # the first call pays one-off costs; never a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def mark(self) -> Tuple[float, float]:
        """A section boundary: (clock, kernel time so far)."""
        return time.perf_counter(), self.kernel_total_s

    def raw(self, begin: Tuple[float, float], end: Tuple[float, float]) -> float:
        """Seconds between two marks, minus the kernel's own time."""
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def reference(self, begin: Tuple[float, float], end: Tuple[float, float]) -> float:
        """The section in reference seconds.  Call once the samples after
        the section exist, i.e. at the end of the run."""
        inside = [d for start, d in self.samples if begin[0] <= start <= end[0]]
        if len(inside) < MIN_SAMPLES:
            def distance(sample: Tuple[float, float]) -> float:
                return max(begin[0] - sample[0], sample[0] - end[0], 0.0)

            inside = [d for _, d in sorted(self.samples, key=distance)[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("no calibration samples in this run")
        return self.raw(begin, end) * REFERENCE_KERNEL_S / (sum(inside) / len(inside))

    def at_run_speed(self, seconds: float) -> float:
        """Raw seconds measured elsewhere (the import probes), in reference
        seconds at this run's median kernel speed."""
        durations = sorted(d for _, d in self.samples)
        if not durations:
            raise RuntimeError("no calibration samples in this run")
        return seconds * REFERENCE_KERNEL_S / durations[len(durations) // 2]
