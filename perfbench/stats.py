"""Order statistics used by the benchmark (pure Python, no numpy)."""

import statistics

#: A tail percentile must leave at least this many samples strictly above it.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
_LADDER = (99.9,) + tuple(range(99, 0, -1))


def median(values):
    return float(statistics.median(values))


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """Highest percentile with at least ``min_beyond`` samples strictly above it.

    Returns ``(p, value, beyond)``. With too few samples for any percentile
    to qualify, the median is returned with its own count beyond.
    """
    for p in _LADDER:
        v = percentile(values, p)
        beyond = sum(1 for x in values if x > v)
        if beyond >= min_beyond:
            return p, v, beyond
    v = percentile(values, 50)
    return 50, v, sum(1 for x in values if x > v)


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
