"""Small statistics helpers: medians, tail percentiles and Spearman by numpy ranks."""

from __future__ import annotations

import math

import numpy as np

# candidate tail percentiles, highest first
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it.

    A sample lies beyond percentile p when its rank exceeds ceil(n * p / 100);
    None when n is too small for even the median to qualify.
    """
    for p in _PERCENTILES:
        if n - math.ceil(n * p / 100.0) >= 10:
            return p
    return None


def summarize(samples) -> dict:
    """Minimum, median, sample count and the qualifying tail percentile of a timing series."""
    values = np.asarray(samples, dtype=np.float64)
    out = {"min": float(values.min()), "median": float(np.median(values)), "n": int(values.size)}
    p = tail_percentile(values.size)
    if p is not None:
        out[f"p{p:g}"] = float(np.percentile(values, p))
    return out


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n with ties given the mean of the ranks they span."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    ranks = np.empty(values.size)
    start = 0
    while start < values.size:
        stop = start + 1
        while stop < values.size and sorted_vals[stop] == sorted_vals[start]:
            stop += 1
        ranks[order[start:stop]] = 0.5 * (start + stop - 1) + 1.0
        start = stop
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks."""
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
    return float(ra @ rb) / denom if denom > 0 else math.nan
