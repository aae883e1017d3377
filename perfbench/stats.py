"""Summary statistics and span arithmetic for the campaign benchmark.

Kept free of I/O so test_perfbench.py can check them directly.
"""

import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """q-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them.
    Needs at least two samples."""
    if len(values) < 2:
        raise ValueError("iqr needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def union_length(intervals, lo=None, hi=None):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Maps span id -> self time: its duration minus the part of its
    interval covered by its children (spans whose parent is its id)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = union_length(children.get(span["id"], []),
                               span["start"], span["end"])
        result[span["id"]] = span["end"] - span["start"] - covered
    return result
