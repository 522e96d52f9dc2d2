"""Machine-speed calibration for the benchmark's timings.

On a shared host the same computation can run up to about 1.8 times slower
for stretches of tens of seconds (measured on the 2-core reference VM: one
fixed scan took 0.88-1.63 s within one minute, and a fixed Python kernel
slowed by the same factor at the same moments).  Raw wall times then spread
far more between runs than any change worth detecting.

So the worker times a fixed kernel of interpreted Python (no qgspectra)
around and during every serial operation and during set-up, and scales
each time by NOMINAL_KERNEL_S over the mean kernel time: the result is the
time at the host's nominal speed.

* After set-up and between operations the kernel runs BETWEEN_SAMPLES
  times in a row, while nothing of the program runs.
* During set-up and serial operations a Sampler interrupts the program
  every SAMPLE_INTERVAL_S (SIGALRM) and runs the kernel in its handler, in
  the program's own thread: so the sample runs on the CPU the operation
  runs on, without pinning anything, and the program waits while it runs.
  The Sampler's clock leaves the samples out of the operation's time.
  Samples between operations alone are too sparse for operations of
  several seconds, whose host speed changes within them.

A sample is the CPU time of the thread that runs the kernel
(time.thread_time), not its wall time, so time the thread waits for a CPU
that other threads or processes hold is not counted; only the speed at
which the host runs the kernel is.  Pooled operations get no Sampler:
their workers keep every CPU busy and the parent mostly waits.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence

# Mean kernel time on the reference VM (Intel Xeon @ 2.0 GHz, 2 vCPUs,
# Python 3.11.7) in an uncontended stretch.
NOMINAL_KERNEL_S = 0.0010

BETWEEN_SAMPLES = 9
SAMPLE_INTERVAL_S = 0.1
_ITERATIONS = 12_000


def kernel() -> int:
    """Fixed interpreted work; returns a value so that nothing is skipped."""
    acc = 0
    for i in range(_ITERATIONS):
        acc += (i * 7) % 13
    return acc


def sample() -> float:
    """CPU time of the calling thread for one kernel run."""
    t = time.thread_time()
    kernel()
    return time.thread_time() - t


def samples(n: int = BETWEEN_SAMPLES) -> List[float]:
    return [sample() for _ in range(n)]


class Sampler:
    """Takes a sample every SAMPLE_INTERVAL_S in the main thread; keeps them
    in ``taken``.  ``clock()`` is time.perf_counter() without the time spent
    in samples."""

    def __init__(self) -> None:
        self.taken: List[float] = []
        self._paused = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        self.taken.append(sample())
        self._paused += time.perf_counter() - t

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(kernel_times: Sequence[float]) -> float:
    """Factor that turns a time measured with these kernel samples nominal.

    The mean, not the median: an operation's time adds up the host's speed
    over its whole length, slow stretches included.
    """
    return NOMINAL_KERNEL_S / statistics.fmean(kernel_times)
