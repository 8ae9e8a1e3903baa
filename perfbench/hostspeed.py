"""Host-speed adjustment of measured times.

On a shared host the same solve can take 1.4-1.8 times longer when other
tenants load the CPU, in phases that last from seconds to minutes, so raw
wall times of identical runs spread too widely to gate a regression.  While
a run is timed, :class:`SpeedSampler` runs a small fixed kernel (numpy and
scipy products plus an interpreter loop over small vector operations) every
``INTERVAL_S`` seconds, from
``SIGALRM`` in the main thread so that no thread or process is added, and
records how long it took.  A timed window
is then reported as its wall time, less the sampling inside it, scaled by
``REF_KERNEL_S`` times the kernel's mean rate: the time the window would
take on a host where the kernel takes ``REF_KERNEL_S``.

The kernel shares the process, and so the caches, with the program.  Each
sample therefore runs it twice and times only the second run, on warm
caches, so that a program that leaves the caches full of its own data does
not slow the timed kernel and cancel part of its own slowdown.
``calibrate.py`` measures how much of a known slowdown of the program the
adjusted time shows.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

REF_KERNEL_S = 0.0005    # about the timed kernel on an unloaded 2-vCPU Xeon host
INTERVAL_S = 0.05
MIN_SAMPLES = 21


class SpeedSampler:
    """Kernel timings taken while the sampler is entered."""

    def __init__(self):
        # (start, duration of the timed kernel, time the sample took)
        self.samples: list[tuple[float, float, float]] = []
        self._a = sp.random(300, 300, density=0.02, random_state=1,
                            format="csc")
        self._v = np.random.default_rng(1).random(300)
        self._d = np.random.default_rng(2).random((60, 60))
        self._old_handler = None

    def sample(self) -> None:
        """Run the kernel to warm the caches, then time it once more."""
        t_start = time.perf_counter()
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append((t_start, t1 - t0, t1 - t_start))

    def _kernel(self) -> None:
        """Sparse and dense products, then an interpreter loop over small
        vector operations like the program's pivot loop: the two kinds of
        work the program does, which slow down by different factors under
        contention."""
        x = self._v
        for _ in range(20):
            x = self._a @ x
            x = x / (1.0 + np.abs(x).max())
        self._d @ self._d
        x = self._v.copy()
        for i in range(40):
            j = int(np.argmax(x))
            x[j] = x[j] * 0.5 + i
            x = x - x.min()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM,
                                          lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def kernel_s(self, since: float) -> float:
        """Median kernel time over the samples taken since ``since``."""
        return statistics.median(self._since(since))

    def _since(self, since: float) -> list[float]:
        """Kernel times since ``since``, sampling directly until there are
        ``MIN_SAMPLES`` of them."""
        while sum(1 for t, _d, _s in self.samples if t >= since) < MIN_SAMPLES:
            self.sample()
        return [d for t, d, _s in self.samples if t >= since]

    def adjust(self, windows: list[tuple[float, float]],
               since: float) -> list[float]:
        """Reference-speed seconds of each (start, end) window of the phase
        that began at ``since``.  The host speed is the mean rate of the
        kernel over the samples taken inside the windows (over the whole
        phase when the windows hold fewer than ``MIN_SAMPLES``), so a
        window that mixes fast and slow stretches is weighted by time."""
        inside = [[(d, spent) for t, d, spent in self.samples if w0 <= t < w1]
                  for w0, w1 in windows]
        pooled = [d for ds in inside for d, _spent in ds]
        if len(pooled) < MIN_SAMPLES:
            pooled = self._since(since)
        scale = REF_KERNEL_S * sum(1.0 / d for d in pooled) / len(pooled)
        return [(w1 - w0 - sum(spent for _d, spent in ds)) * scale
                for (w0, w1), ds in zip(windows, inside)]
