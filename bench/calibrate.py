"""Host-speed calibration: a fixed kernel of interpreter and numpy work.

The benchmark's host is a small share of a machine whose other tenants
change its speed by up to 2x over minutes, for the CPU time of a
single-threaded process as much as for its wall time.  ``child.py`` times
this kernel while it works, and ``run.py`` rescales the child's times to
the host speed at which one round of the kernel takes ``ROUND_REFERENCE_S``
(see README.md, "Host speed"):

- set-up is rescaled by ``SNAPSHOT_ROUNDS`` rounds timed right after it;
- the experiment is rescaled by a ``Sampler``: every
  ``BURST_INTERVAL_S`` seconds a SIGALRM handler times a burst of
  ``BURST_ROUNDS`` rounds in the middle of the experiment, on the same
  thread.  The bursts' own time is taken out of the experiment time, and
  the median burst gives the host speed over exactly that interval.

One round is an interpreter loop, a sort of a cache-sized array and a real
FFT, the kinds of work the workloads spend their time on.  The kernel is
benchmark code, so no change to ``src/`` can move it.
"""

from __future__ import annotations

import signal
import time

# One round's time on an Intel Xeon (Sapphire Rapids, 2 vCPUs under KVM) when
# the host is quiet, with Python 3.11 and numpy 2.4: rescaled times read as
# seconds on that host at that speed.
ROUND_REFERENCE_S = 0.0032
SNAPSHOT_ROUNDS = 80
BURST_ROUNDS = 3
BURST_INTERVAL_S = 0.2


def scale(measured_s: float, rounds: int) -> float:
    """Factor that rescales times taken when ``rounds`` rounds took ``measured_s``."""
    return ROUND_REFERENCE_S * rounds / measured_s


class Kernel:
    """The calibration kernel.

    Build it before tracing patches ``numpy.fft``: it keeps the unpatched
    ``rfft``, so its FFTs never reach the trace.
    """

    def __init__(self):
        import numpy as np

        self._data = np.random.default_rng(0).random(1 << 16)
        self._sort = np.sort
        self._rfft = np.fft.rfft

    def seconds(self, rounds: int) -> float:
        """Wall-clock seconds of ``rounds`` rounds."""
        start = time.perf_counter()
        for _ in range(rounds):
            total = 0
            for i in range(20_000):
                total += i * i
            self._sort(self._data)
            self._rfft(self._data)
        return time.perf_counter() - start


class Sampler:
    """Times a burst of ``kernel`` every ``BURST_INTERVAL_S`` seconds while open."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.bursts: list[float] = []
        self._previous = None

    def _burst(self, signum, frame):
        self.bursts.append(self.kernel.seconds(BURST_ROUNDS))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, BURST_INTERVAL_S, BURST_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
