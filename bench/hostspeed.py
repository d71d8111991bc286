"""Host speed reference: a fixed kernel timed next to every measurement.

Shared hosts drift in speed by tens of percent for seconds to minutes at a
time, and the drift is nearly the same for every kind of code: over 20 s
windows, the throughput of the three workloads varied by 11-13%
(coefficient of variation), and by 3-4% once scaled by this kernel.  Every
time the benchmark reports is therefore scaled to one fixed host speed,
the speed at which one reference unit takes ``REF_SECONDS``:

    scaled seconds = measured seconds * REF_SECONDS / (seconds per unit nearby)

``REF_SECONDS`` is close to one unit's time on an uncontended core of the
2-core Xeon host this benchmark was written on, so scaled times read about
as wall times there.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_SECONDS = 1.7e-4
BRACKET_S = 0.02
_VECTOR = np.linspace(0.0, 1.0, 64)


def reference_unit() -> float:
    """Two halves of about equal time: small numpy calls with float
    bookkeeping, like the time map's quadrature, and a pure-Python scalar
    recurrence, like the RK4 integrator.  Host drift hits the two kinds of
    code a little differently; the pair tracks all three workloads."""
    acc = 0.0
    for i in range(150):
        acc += float(np.dot(_VECTOR, _VECTOR)) * 1e-3 + 0.5 * i
    w = 1.3
    for _ in range(1000):
        w += 1e-3 * (w / (1.0 + w) - 0.1 * w)
    return acc + w


class Speed:
    """Reference units run near a measurement, and the seconds they took."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, min_seconds: float) -> None:
        """Run whole reference units for at least ``min_seconds`` (one at least)."""
        t0 = perf_counter()
        while True:
            reference_unit()
            self.units += 1
            elapsed = perf_counter() - t0
            if elapsed >= min_seconds:
                self.seconds += elapsed
                return

    def factor(self) -> float:
        """Multiply measured seconds by this to get seconds at reference speed."""
        return REF_SECONDS * self.units / self.seconds


def scaled_call(fn):
    """(fn(), its duration in reference seconds), sampling the speed for
    BRACKET_S just before and just after the call."""
    speed = Speed()
    speed.sample(BRACKET_S)
    t0 = perf_counter()
    out = fn()
    elapsed = perf_counter() - t0
    speed.sample(BRACKET_S)
    return out, elapsed * speed.factor()
