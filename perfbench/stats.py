"""Order statistics for the benchmark report.

A percentile is reported only when at least MIN_TAIL samples lie beyond it,
and always together with its sample count, so a p90 over 20 samples (two
samples in the tail) is never printed as if it meant something.
"""

import math
import statistics

MIN_TAIL = 10


def quantile(values, q):
    """The q-quantile by linear interpolation between closest ranks (the
    rule numpy.percentile uses by default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_samples(n, q):
    """How many of n samples lie beyond the q-quantile."""
    return math.floor(n * (1.0 - q) + 1e-9)


def percentile(values, q):
    """{"value", "samples"} for the q-quantile, or None when fewer than
    MIN_TAIL samples lie beyond it."""
    n = len(values)
    if n == 0 or tail_samples(n, q) < MIN_TAIL:
        return None
    return {"value": quantile(values, q), "samples": n}


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles taken as statistics.quantiles(n=4) gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
