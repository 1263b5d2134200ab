"""Unit tests for the suite's statistics (pure Python, no program under test)."""

import math

import pytest

from suite import stats
from suite.spans import Tracer


def test_percentile_interpolates():
    ordered = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.percentile(ordered, 0.0) == 1.0
    assert stats.percentile(ordered, 0.5) == 3.0
    assert stats.percentile(ordered, 1.0) == 5.0
    assert math.isclose(stats.percentile(ordered, 0.9), 4.6)
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile(ordered, 1.5)


@pytest.mark.parametrize("count, expected", [
    (50, 0.5),        # even p90 would have only 5 beyond
    (100, 0.90),      # 10 beyond p90, 5 beyond p95
    (200, 0.95),      # 10 beyond p95
    (999, 0.95),      # 9.99 beyond p99: not enough
    (1000, 0.99),     # exactly 10 beyond p99
    (10_000, 0.999),
])
def test_supported_tail_needs_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected


def test_quartiles_match_the_acceptance_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert math.isclose(stats.spread(values), (17.25 - 11.75) / 14.5)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def test_union_length_merges_overlaps_and_clips():
    intervals = [(1.0, 5.0), (3.0, 6.0), (8.0, 9.0)]
    assert stats.union_length(intervals) == pytest.approx(6.0)
    assert stats.union_length(intervals, 2.0, 8.5) == pytest.approx(4.5)
    assert stats.union_length([]) == 0.0


def test_layer_self_time_is_duration_minus_child_cover():
    tracer = Tracer()
    # request 0: an engine span whose search fans out into two overlapping scans
    tracer.record("server.dispatch", 0, 0.0, 10.0)
    tracer.record("service.engine", 0, 1.0, 9.0)
    tracer.record("index.search", 0, 2.0, 8.0)
    tracer.record("coordinator.shard_scan", 0, 3.0, 6.0)
    tracer.record("coordinator.shard_scan", 0, 4.0, 7.0)
    # request 1 has its own, unrelated dispatch
    tracer.record("server.dispatch", 1, 20.0, 21.0)
    parents = {(item["name"], item["start"]): item["parent"] for item in tracer.resolved()}
    names = {item["id"]: item["name"] for item in tracer.resolved()}
    assert names[parents[("coordinator.shard_scan", 4.0)]] == "index.search"
    assert names[parents[("service.engine", 1.0)]] == "server.dispatch"
    assert parents[("server.dispatch", 20.0)] is None
    layers = tracer.layer_samples()
    assert layers["server.dispatch"]["self"] == pytest.approx([2.0, 1.0])
    assert layers["service.engine"]["self"] == pytest.approx([2.0])
    # the two scans overlap: together they cover [3, 7], not 3 + 3 seconds
    assert layers["index.search"]["self"] == pytest.approx([6.0 - 4.0])
    assert layers["coordinator.shard_scan"]["total"] == pytest.approx([4.0])
    assert sum(layers[name]["self"][0] for name in layers) == pytest.approx(10.0)
    assert sorted(tracer.durations("coordinator.shard_scan")) == pytest.approx([3.0, 3.0])
    with pytest.raises(KeyError):
        with tracer.span("not.in.the.onion"):
            pass


def test_bucket_quantile_interpolates_inside_the_bucket():
    buckets = [(0.001, 10.0), (0.01, 90.0), (0.1, 100.0), (float("inf"), 100.0)]
    assert stats.bucket_quantile(buckets, 0.5) == pytest.approx(0.001 + 0.009 * 0.5)
    assert stats.bucket_quantile(buckets, 0.99) == pytest.approx(0.01 + 0.09 * 0.9)
    assert stats.bucket_quantile([(0.1, 0.0), (float("inf"), 4.0)], 0.5) == 0.1
    assert stats.bucket_quantile([], 0.5) == 0.0
    assert stats.bucket_quantile([(0.1, 0.0)], 0.5) == 0.0


def test_zipf_sampler_is_deterministic_and_skewed():
    first = stats.ZipfSampler(1000, 1.1, seed=7).draws(5000)
    again = stats.ZipfSampler(1000, 1.1, seed=7).draws(5000)
    other = stats.ZipfSampler(1000, 1.1, seed=8).draws(5000)
    assert first == again
    assert first != other
    assert all(0 <= rank < 1000 for rank in first)
    head = sum(1 for rank in first if rank < 10)
    tail = sum(1 for rank in first if rank >= 500)
    assert head > 5 * tail
    with pytest.raises(ValueError):
        stats.ZipfSampler(0, 1.1, seed=1)
