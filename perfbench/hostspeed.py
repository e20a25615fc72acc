"""Host-speed probe: a fixed kernel that does not touch harmnet.

On a shared host the neighbours change how fast the same code runs, by up to
about 1.9x within seconds, and processor time moves with wall time, so
neither clock alone gives a figure that repeats.  `HostClock` times this
probe right before and right after every timed step, and every `INTERVAL_S`
during a long one, and scales the step's time by ``REFERENCE_S / mean probe
time``: a step that took 300 ms while the probe took twice its reference
time is reported as 150 ms.  Figures then read as times on a host where the
probe takes ``REFERENCE_S``, which is about what it takes on a quiet 2-vCPU
box of the kind the benchmark was written on.

The probe mixes what harmnet spends its time on: complex FFTs, small-array
numpy calls and plain Python.  It uses numpy only (single-threaded pocketfft),
so nothing a change to harmnet does, such as caching plans or registering an
FFT backend, can change the probe's own cost.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.005     # one probe pass on a quiet host
PASSES = 5              # a probe reports the median pass, so one interrupted pass does not count
INTERVAL_S = 0.5        # probe period inside a step

_rng = np.random.default_rng(0)
# 2.4 MB of complex128, more than a core's share of cache: like harmnet's
# feature maps, the transform waits on memory as well as on arithmetic
_SIGNAL = _rng.standard_normal((8, 8, 48, 48)) + 1j * _rng.standard_normal((8, 8, 48, 48))
_SMALL = _rng.standard_normal((4, 4))


def _pass() -> float:
    t0 = time.perf_counter()
    np.fft.ifft2(np.fft.fft2(_SIGNAL) * _SIGNAL)
    b = _SMALL
    for _ in range(200):
        b = np.tanh(b @ _SMALL) * 0.5 + b.sum() * 1e-3
    acc = 0
    for i in range(40000):
        acc += i & 7
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of one probe pass now (median of `PASSES`)."""
    return statistics.median(_pass() for _ in range(PASSES))


class HostClock:
    """Times steps and scales them to the reference host speed.

    Probes inside a step run from a SIGALRM handler, which Python calls in
    the main thread between bytecodes, so the program under test is neither
    changed nor wrapped.  Their time is taken out of the step's time.  Pass
    ``inside=False`` where spans are being recorded, so no probe lands in a
    span."""

    def __init__(self):
        self.samples = [probe()]
        self._inside_s = 0.0
        self._armed = False

    def _tick(self, signum, frame) -> None:
        # a tick delivered as the step ends may run after its end was read
        if not self._armed:
            return
        t0 = time.perf_counter()
        self.samples.append(probe())
        self._inside_s += time.perf_counter() - t0

    def call(self, fn, inside: bool = True) -> tuple:
        """Run `fn`; returns (its result, wall seconds, scaled seconds)."""
        first = len(self.samples) - 1
        self._inside_s = 0.0
        if inside:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._armed = inside
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            self._armed = False
            t1 = time.perf_counter()
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - self._inside_s
        self.samples.append(probe())
        return result, wall, wall * REFERENCE_S / statistics.fmean(self.samples[first:])

    def scale(self, wall: float) -> float:
        """Scaled seconds of a time measured elsewhere (a child process)
        since the last step, by the probes on either side of it."""
        self.samples.append(probe())
        return wall * REFERENCE_S / statistics.fmean(self.samples[-2:])
