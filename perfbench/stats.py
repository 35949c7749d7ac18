"""Percentiles that carry their sample count and refuse thin tails.

A p90 over 40 samples rests on four values past it; one slow sample
moves it by a quarter.  :func:`percentile` therefore refuses any
percentile with fewer than :data:`MIN_TAIL` samples beyond it, and every
result carries the count it was taken over so a report can print it.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


@dataclasses.dataclass(frozen=True)
class Percentile:
    """One percentile and the number of samples it was taken over."""

    value: float
    samples: int


def min_samples(q: float) -> int:
    """The smallest sample count with :data:`MIN_TAIL` samples beyond
    the *q*-th percentile (``q`` in percent)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly in (0, 100): {q!r}")
    beyond = min(q, 100 - q) / 100.0
    return math.ceil(MIN_TAIL / beyond - 1e-9)


def percentile(samples: t.Sequence[float], q: float) -> Percentile:
    """The *q*-th percentile (linear interpolation between closest
    ranks, as ``statistics.quantiles(method="inclusive")``).

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_TAIL`
    samples lie beyond it on the thinner side.
    """
    n = len(samples)
    need = min_samples(q)
    if n < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples "
            f"({MIN_TAIL} beyond it), got {n}"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * frac
    return Percentile(value=value, samples=n)


def median(samples: t.Sequence[float]) -> float:
    """The median of a non-empty sample (no tail requirement: a median
    is how rounds of one run are combined)."""
    if not samples:
        raise TooFewSamples("median of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
