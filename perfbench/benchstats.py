"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

# A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    ``MIN_BEYOND`` samples lie beyond the returned rank, so a reported
    tail is never one or two stragglers.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and the interquartile share of the median."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(ordered),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "iqr_share": (q3 - q1) / median if median else 0.0,
    }
