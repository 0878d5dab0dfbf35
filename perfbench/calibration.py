"""Machine-speed calibration for timings on a shared host.

On a host whose other tenants come and go, the same pass ran 1.5 times
slower in busy minutes than in quiet ones, so raw seconds spread across
runs by more than any regression bound.  A fixed round of work that uses
nothing from sphelim is timed every ``GAP_S`` seconds between operations,
and an interval's duration is rescaled to *reference seconds*: seconds on
a machine where one round takes ``REF_ROUND_S``.  Work that the program
does shows in full, while the host's speed at that moment divides out.

The round mixes the three kinds of work the workloads do: interpreted
integer arithmetic, big-integer products and Fraction arithmetic.  A round
of interpreted arithmetic alone tracked the host's speed less well on
the big-integer workloads.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

ROUND_ITERATIONS = 30000
REF_ROUND_S = 0.003    # the round time that defines a reference second
GAP_S = 0.1            # longest stretch of work between two rounds


def _round() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(ROUND_ITERATIONS // 2):
        acc += i * i % 7
    big = 7 ** 400
    for _ in range(ROUND_ITERATIONS // 100):
        acc += big * big % 1000
    value = Fraction(1, 3)
    for j in range(1, ROUND_ITERATIONS // 200):
        value *= Fraction(j, j + 1)
    return time.perf_counter() - start


class Calibration:
    def __init__(self):
        self._mids: list[float] = []
        self._rounds: list[float] = []
        self._last_end = 0.0

    def measure(self) -> None:
        """Time one round now."""
        start = time.perf_counter()
        self._rounds.append(_round())
        self._last_end = time.perf_counter()
        self._mids.append((start + self._last_end) / 2)

    def measure_if_due(self) -> None:
        """Time one round if GAP_S has passed since the last."""
        if time.perf_counter() - self._last_end >= GAP_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for the interval [start, end]:
        from the mean of the last round before it and the first after it."""
        before = bisect.bisect_right(self._mids, start) - 1
        after = bisect.bisect_left(self._mids, end)
        near = [self._rounds[i] for i in (before, after) if 0 <= i < len(self._rounds)]
        return REF_ROUND_S * len(near) / sum(near)
