"""Summaries of timing samples, by nearest rank."""
from __future__ import annotations

import math

# Candidate percentiles, lowest first.
LADDER = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))  # tolerate 99.9 * n rounding up


def tail_percentile(n: int) -> float | None:
    """The highest percentile in LADDER with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    fits = [p for p in LADDER if n - rank(p, n) >= 10]
    return fits[-1] if fits else None


def percentile(samples, p: float) -> float:
    ordered = sorted(samples)
    return ordered[rank(p, len(ordered)) - 1]


def summarize(samples) -> dict:
    """Median, the tail percentile by the rule above, max and sample count.
    Without enough samples for a tail, the tail falls back to the max."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_p": None, "tail": 0.0, "max": 0.0}
    p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_p": p,
        "tail": percentile(samples, p) if p is not None else max(samples),
        "max": max(samples),
    }
