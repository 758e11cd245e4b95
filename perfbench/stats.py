"""Order statistics used for every reported timing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# A tail percentile needs this many samples strictly beyond it to be reported.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


@dataclass(frozen=True)
class Tail:
    """A tail order statistic with the percentile it sits at and its sample count."""

    value: float
    percentile: float
    samples: int
    beyond: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "percentile": round(self.percentile, 2),
            "samples": self.samples,
            "beyond": self.beyond,
        }


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile that still has TAIL_BEYOND samples above it.

    With n sorted samples that is the order statistic at 0-based position
    n - TAIL_BEYOND - 1, i.e. percentile 100 * (n - TAIL_BEYOND) / n.  Up to
    2 * TAIL_BEYOND samples that percentile would not lie above the median, so
    the maximum is reported instead, with zero samples beyond it.
    """
    if not values:
        raise ValueError("tail of no samples")
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return Tail(xs[-1], 100.0, n, 0)
    return Tail(xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n, TAIL_BEYOND)
