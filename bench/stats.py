"""Order statistics used by the benchmark's reports."""
from __future__ import annotations

import statistics

# Candidate percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of n samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:  # round: 100 - 99.9 is not exact
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


def relative_iqr(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
