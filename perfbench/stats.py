"""Statistics helpers of the tabperf benchmark.

Pure functions over lists of numbers and span records, so they can be tested
without building anything (see test_stats.py).
"""

import math
import statistics

# Percentiles a tail may be reported at, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)


def percentile(values, pct):
    """Linear-interpolation percentile (numpy's default) of `values`.

    `pct` is in [0, 100]. Raises ValueError on an empty list.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile out of range: %r" % pct)
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread the benchmark's bounds are checked with."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def sum_of_medians(rounds, columns=None):
    """Sum over steps of each step's median over the rounds.

    `rounds` is a list of equally long lists, one time per step; `columns`
    picks the steps to sum (all by default). Raises ValueError on no rounds
    or rounds of different lengths.
    """
    if not rounds:
        raise ValueError("sum of medians of no rounds")
    width = len(rounds[0])
    if any(len(r) != width for r in rounds):
        raise ValueError("rounds have different numbers of steps")
    if columns is None:
        columns = range(width)
    return sum(percentile([r[j] for r in rounds], 50) for j in columns)


def tail(values, min_beyond=10, candidates=TAIL_PERCENTILES):
    """The highest candidate percentile with at least `min_beyond` samples
    strictly above its value, as (pct, value); None when not even the
    lowest candidate qualifies."""
    best = None
    for pct in candidates:
        v = percentile(values, pct)
        if sum(1 for x in values if x > v) >= min_beyond:
            best = (pct, v)
    return best


def self_times(spans):
    """Self time per span: its duration minus the part of its interval that
    its child spans cover (children clipped to the parent, overlaps merged).

    `spans` is a list of dicts with keys id, parent, start, end (any time
    unit); returns {id: self_time}.
    """
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], lo), min(c["end"], hi)
            if a >= b:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_self_times(spans):
    """Self time summed per layer (the span name before its first '.')."""
    per_span = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0) + per_span[s["id"]]
    return out
