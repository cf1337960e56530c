"""The benchmark's own arithmetic: percentiles, span self time and
doubling ratios.  Pure functions, covered by ``test_stats.py``."""

from __future__ import annotations

import math
from statistics import median


def nearest_rank(sorted_values, q: float):
    """The nearest-rank q-quantile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def tail_percentile(values, q: float = 0.95, beyond: int = 10):
    """(value, percentile) of the highest percentile up to q that leaves at
    least ``beyond`` samples above it; with 200 or more samples that is q
    itself.  Failed jobs enter as +inf, so once more than 1 - q of the
    jobs fail the value is +inf."""
    xs = sorted(values)
    n = len(xs)
    index = max(min(math.ceil(q * n) - 1, n - 1 - beyond), 0)
    return xs[index], 100.0 * (index + 1) / n


def span_self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it covered by
    its direct child spans, minus the time it spent in untraced-as-spans
    layers (``span[6]``).

    A span is ``(layer, name, start, end, parent, job, inner_s)`` with
    ``parent`` the index of the enclosing span or None.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered, edge = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, edge), min(e, end)
            if e > s:
                covered += e - s
                edge = e
        out.append(end - start - covered - span[6])
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: ``calls`` and ``busy_s`` over entry spans (those whose
    parent is in another layer or absent), and ``self_s`` over all spans."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, span_self_times(spans)):
        t = totals.setdefault(span[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["self_s"] += own
        if span[4] is None or spans[span[4]][0] != span[0]:
            t["calls"] += 1
            t["busy_s"] += span[3] - span[2]
    return totals


def doubling_ratio(samples) -> float:
    """Geometric mean, over every series and every adjacent pair of sizes
    on its ladder, of median latency at the larger size over median latency
    at the smaller one.  ``samples`` maps (series, size) to latencies.
    Returns 0.0 when no series has two sizes."""
    by_series: dict[object, dict[int, list[float]]] = {}
    for (series, size), values in samples.items():
        by_series.setdefault(series, {})[size] = values
    logs = []
    for ladder in by_series.values():
        sizes = sorted(ladder)
        for small, large in zip(sizes, sizes[1:]):
            logs.append(math.log(median(ladder[large]) / median(ladder[small])))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0
