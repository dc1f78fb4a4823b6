"""A clock that runs at a fixed reference speed of the host.

On a shared host, identical work runs up to about 1.5x slower in phases that
last from seconds to minutes, and the process's CPU time slows with its wall
time, so the slow phases are not time spent descheduled. A workload timed on
the wall clock moves with those phases. This clock takes them out:

- every ``PERIOD_S`` of wall time, a ``SIGALRM`` handler runs a fixed
  calibration kernel (small numpy products and pure-Python arithmetic, the
  mix the workloads run) and times it in thread CPU time, so time the
  process is descheduled does not count as a slow host;
- the host's speed is ``REFERENCE_S`` over the median of the last
  ``WINDOW`` kernel times;
- between two samples, ``now()`` advances by the wall time elapsed times the
  speed last measured. The handler's own time is left out.

So ``now()`` differences are wall times converted to a host where the kernel
takes ``REFERENCE_S``. Work that gets faster in the program reads faster;
the host's phases read the same. ``time_call`` converts a call too short
for the periodic samples with samples taken just before and after it.
The run's speeds are summed up in ``stats()``.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

PERIOD_S = 0.25
WINDOW = 5
# CPU time of one kernel call at the reference speed: about the kernel's usual
# time on a 2-vCPU Intel Xeon cloud host (1.1 ms in its fast phases), so
# reference seconds there are close to wall seconds.
REFERENCE_S = 1.5e-3

_A = np.random.default_rng(0).standard_normal((40, 40)) * 0.1


def kernel() -> int:
    x, s = _A, 0
    for _ in range(80):
        x = np.tanh(x @ _A) + _A
        for j in range(60):
            s += j * j % 7
    return s


def kernel_s() -> float:
    """Thread CPU time of one kernel call."""
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


class HostClock:
    def __init__(self) -> None:
        self.samples: deque = deque(maxlen=WINDOW)
        # (reference time, wall time, speed) at the last sample
        self.state = (0.0, time.perf_counter(), 1.0)
        self.calibrations = 0
        self.paused_s = 0.0
        self.speeds: list[float] = []
        self._busy = False

    def _calibrate(self) -> float:
        self.samples.append(kernel_s())
        self.calibrations += 1
        speed = REFERENCE_S / statistics.median(self.samples)
        self.speeds.append(speed)
        return speed

    def start(self) -> None:
        for _ in range(WINDOW):
            speed = self._calibrate()
        self.state = (0.0, time.perf_counter(), speed)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            state = self.state
            t = time.perf_counter()
            if state is self.state:  # no sample was taken in between
                ref, wall, speed = state
                return ref + (t - wall) * speed

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the process stalled past a period inside a tick
            return
        self._busy = True
        enter = time.perf_counter()
        ref, wall, speed = self.state
        ref += (enter - wall) * speed
        new_speed = self._calibrate()
        leave = time.perf_counter()
        self.paused_s += leave - enter
        self.state = (ref, leave, new_speed)
        self._busy = False

    def time_call(self, fn) -> tuple[object, float, float]:
        """Run a short call; return its result, its time on the host clock
        and its wall time. The host's speed is sampled ``WINDOW`` times just
        before and just after the call, and the mean of the two medians
        converts its wall time: one sample of the periodic clock is too
        coarse for a call of a few tens of milliseconds."""
        before = self._fresh_speed()
        w0, p0 = time.perf_counter(), self.paused_s
        result = fn()
        wall = time.perf_counter() - w0 - (self.paused_s - p0)
        after = self._fresh_speed()
        return result, wall * (before + after) / 2, wall

    def _fresh_speed(self) -> float:
        return REFERENCE_S / statistics.median(kernel_s() for _ in range(WINDOW))

    def stats(self) -> dict:
        return {
            "period_s": PERIOD_S,
            "reference_s": REFERENCE_S,
            "calibrations": self.calibrations,
            "paused_s": self.paused_s,
            "speed_median": statistics.median(self.speeds) if self.speeds else None,
            "speed_min": min(self.speeds, default=None),
            "speed_max": max(self.speeds, default=None),
        }


CLOCK = HostClock()
now = CLOCK.now
