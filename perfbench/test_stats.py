"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_stats.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import REFERENCE_S, Gauge  # noqa: E402
from stats import doubling_ratio, layer_totals, nearest_rank, span_self_times, tail_percentile  # noqa: E402

INF = math.inf


def test_nearest_rank_median():
    assert nearest_rank([1, 2, 3, 4], 0.5) == 2
    assert nearest_rank([1, 2, 3, 4, 5], 0.5) == 3


def test_p95_with_200_samples_is_the_95th_percentile():
    assert tail_percentile(list(range(1, 201))) == (190, 95.0)


def test_p95_keeps_ten_samples_beyond_in_small_runs():
    value, pct = tail_percentile(list(range(1, 51)))
    assert (value, pct) == (40, 80.0)
    assert sum(v > value for v in range(1, 51)) == 10


def test_failures_count_as_infinite_latency():
    finite = list(range(1, 196))
    assert tail_percentile(finite + [INF] * 5)[0] == 190
    # 11 failures in 200 jobs: more than 5% missed every limit
    assert tail_percentile(list(range(1, 190)) + [INF] * 11)[0] == INF
    assert nearest_rank(sorted([1.0, INF, INF]), 0.5) == INF


def span(layer, start, end, parent=None, inner=0.0):
    return [layer, "f", start, end, parent, 0, inner]


def test_self_time_subtracts_children_and_inner_layers():
    spans = [
        span("cli", 0.0, 10.0, inner=1.0),
        span("parser", 1.0, 3.0, parent=0),
        span("series", 4.0, 8.0, parent=0, inner=2.5),
    ]
    assert span_self_times(spans) == [10.0 - 2.0 - 4.0 - 1.0, 2.0, 4.0 - 2.5]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("cli", 0.0, 10.0),
        span("series", 1.0, 4.0, parent=0),
        span("series", 3.0, 6.0, parent=0),
        span("series", 9.0, 12.0, parent=0),
    ]
    assert span_self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_layer_totals_count_entries_not_nested_calls():
    spans = [
        span("cli", 0.0, 10.0),
        span("series", 1.0, 9.0, parent=0),
        span("series", 2.0, 5.0, parent=1),
        span("series", 20.0, 21.0),
    ]
    totals = layer_totals(spans)
    assert totals["series"]["calls"] == 2
    assert totals["series"]["busy_s"] == 8.0 + 1.0
    assert totals["series"]["self_s"] == (8.0 - 3.0) + 3.0 + 1.0
    assert totals["cli"] == {"calls": 1, "busy_s": 10.0, "self_s": 2.0}


def test_doubling_ratio_of_one_ladder():
    samples = {("Q", 25): [1.0], ("Q", 50): [2.0], ("Q", 100): [4.0]}
    assert doubling_ratio(samples) == 2.0


def test_doubling_ratio_uses_medians_and_averages_ladders_geometrically():
    samples = {
        ("Q", 25): [1.0, 100.0, 1.0],
        ("Q", 50): [2.0, 2.0, 0.1],
        ("F7", 25): [1.0],
        ("F7", 50): [8.0],
    }
    assert math.isclose(doubling_ratio(samples), 4.0)


def test_doubling_ratio_without_a_ladder_is_zero():
    assert doubling_ratio({("Q", 25): [1.0]}) == 0.0
    assert doubling_ratio({}) == 0.0


def test_gauge_scales_by_the_loop_times_near_the_job():
    gauge = Gauge()
    gauge.times = [0.0, 1.0, 2.0, 3.0]
    gauge.loops = [0.001, 0.002, 0.004, 0.001]
    # only the timings at 1.0 and 2.0 lie within WINDOW of [0.9, 2.1]
    assert math.isclose(gauge.factor(0.9, 2.1), REFERENCE_S / 0.003)
    assert math.isclose(gauge.median_factor(), REFERENCE_S / 0.0015)
