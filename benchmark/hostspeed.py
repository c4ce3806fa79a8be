"""Host-speed correction of wall-clock timings.

On a shared host the same single-threaded numpy work runs up to 1.8x
slower at times, in phases that last from seconds to minutes, and the
process's CPU time slows with it (the loss is in throughput, not in
stolen time). A run that falls in a slow phase then reads slow whatever
the program does.

Each timed step is therefore accompanied by readings of a short fixed
numpy kernel that does not touch qsep: one just before the step, one just
after it, and, when sampling is on, one every INTERVAL seconds while it
runs (from a SIGALRM handler, whose time is taken out of the step's). The
step's corrected time is its own wall time scaled by NOMINAL / (median
of the readings from WINDOW seconds before it started to the one after it
ended): the time it would take on a host on which the kernel takes its
nominal time. The window gives steps shorter than one reading interval
the readings of the steps just before them, and the median keeps a
reading that a stall doubled (2 of 171 large readings in one set of
runs) from deciding a step's time. Two kernels match the program's two
regimes, since contention slows them by different factors:

- "small": 100 eigendecompositions of a stack of twenty 9x9 symmetric
  matrices, like the solver's objective evaluations and LMO sweeps;
- "large": one eigendecomposition of a 600x600 complex Hermitian matrix,
  like the D=1000 dense factorizations of the truncation experiment.

The kernels' inputs are fixed, and they call numpy functions bound at
import, so a tracer that later patches numpy does not count them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_eigh = np.linalg.eigh

# kernel seconds on the reference host in a fast phase (2-vCPU x86-64
# VM, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread); corrected
# times are seconds on a host that runs the kernels this fast
NOMINAL = {"small": 0.018, "large": 0.23}
# seconds between readings inside a step
INTERVAL = {"small": 0.6, "large": 3.0}
WINDOW = 2.0
# a reading taken this recently is reused as the next step's "before"
REUSE_S = 0.005


class Calibrator:
    def __init__(self, sample: bool = True):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((20, 9, 9))
        self._stack = stack + stack.transpose(0, 2, 1)
        z = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
        self._dense = z + z.conj().T
        # (end time, seconds) of every reading, per regime
        self.readings: dict[str, list[tuple[float, float]]] = {"small": [], "large": []}
        self._sample = sample
        self._active: str | None = None  # regime sampled by the handler
        self._paused = 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _kernel(self, regime: str) -> None:
        if regime == "small":
            for _ in range(100):
                _eigh(self._stack)
        else:
            _eigh(self._dense)

    def read(self, regime: str, reuse: bool = False) -> None:
        """Take one reading of the regime's kernel, unless reuse is set and
        the last one is REUSE_S old at most."""
        done = self.readings[regime]
        if reuse and done and time.perf_counter() - done[-1][0] < REUSE_S:
            return
        t0 = time.perf_counter()
        self._kernel(regime)
        t1 = time.perf_counter()
        done.append((t1, t1 - t0))

    def _on_alarm(self, signum, frame) -> None:
        if self._active is None:  # a tick delivered after the step ended
            return
        t0 = time.perf_counter()
        self.read(self._active)
        self._paused += time.perf_counter() - t0

    def timed(self, fn, regime: str = "small"):
        """(result of fn(), wall seconds, corrected seconds); the wall
        seconds exclude the readings taken while fn ran."""
        self.read(regime, reuse=True)
        self._paused = 0.0
        t0 = time.perf_counter()
        if self._sample:
            self._active = regime
            signal.setitimer(signal.ITIMER_REAL, INTERVAL[regime], INTERVAL[regime])
        try:
            result = fn()
        finally:
            if self._sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._active = None
        wall = time.perf_counter() - t0 - self._paused
        self.read(regime)
        speed = statistics.median(s for end, s in self.readings[regime] if end >= t0 - WINDOW)
        return result, wall, wall * NOMINAL[regime] / speed
