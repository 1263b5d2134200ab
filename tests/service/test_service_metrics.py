"""Tests for the serving metrics accumulator."""

import sys
import threading

import pytest

from repro.core.cost import SearchCost
from repro.errors import EvaluationError
from repro.obs.prometheus import parse_exposition
from repro.service import ServiceMetrics, percentile
from repro.service.metrics import SERVING_SAMPLE_LIMIT


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestPercentile:
    def test_known_values(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0

    def test_unordered_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_empty_returns_zero(self):
        # Zero, not an exception: a snapshot taken before any traffic must
        # render a zeroed latency block, not crash the metrics endpoint.
        assert percentile([], 0.0) == 0.0
        assert percentile([], 0.5) == 0.0
        assert percentile([], 1.0) == 0.0

    def test_single_sample(self):
        # Every fraction of a one-sample distribution is that sample.
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_linear_interpolation_between_ranks(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        # rank = fraction * (n - 1): p50 of four samples sits halfway
        # between the 2nd and 3rd order statistics.
        assert percentile(samples, 0.5) == pytest.approx(2.5)
        assert percentile(samples, 0.25) == pytest.approx(1.75)
        assert percentile(samples, 0.9) == pytest.approx(3.7)

    def test_two_samples_midpoint(self):
        assert percentile([10.0, 20.0], 0.5) == pytest.approx(15.0)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(EvaluationError):
            percentile([1.0], 1.5)
        with pytest.raises(EvaluationError):
            percentile([1.0], -0.1)


class TestServiceMetrics:
    def test_counters(self):
        metrics = ServiceMetrics()
        metrics.record("knn", 0.010, cached=False, visited_partitions=("P0", "P1"))
        metrics.record("knn", 0.000, cached=True)
        metrics.record("range", 0.020, cached=False, visited_partitions=("P0",))
        metrics.record("knn", 0.050, cached=False, timed_out=True)
        metrics.record("range", 0.001, cached=False, failed=True)
        snapshot = metrics.snapshot()
        assert snapshot["queries"] == 5
        assert snapshot["executed"] == 4
        assert snapshot["served_from_cache"] == 1
        assert snapshot["timeouts"] == 1
        assert snapshot["errors"] == 1
        assert snapshot["queries_by_kind"] == {"knn": 3, "range": 2}

    def test_partition_loads(self):
        metrics = ServiceMetrics()
        metrics.record("knn", 0.01, cached=False, visited_partitions=("P0", "P2"))
        metrics.record("knn", 0.01, cached=False, visited_partitions=("P0",))
        assert metrics.partition_loads() == {"P0": 2, "P2": 1}

    def test_qps_uses_elapsed_time(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.record("knn", 0.01, cached=False)
        clock.advance(2.0)
        metrics.record("knn", 0.01, cached=False)
        snapshot = metrics.snapshot()
        assert snapshot["wall_seconds"] == pytest.approx(2.0)
        assert snapshot["qps"] == pytest.approx(1.0)

    def test_latency_percentiles(self):
        metrics = ServiceMetrics()
        for latency in (0.001, 0.002, 0.003, 0.004, 0.100):
            metrics.record("knn", latency, cached=False)
        latency_ms = metrics.snapshot()["latency_ms"]
        assert latency_ms["p50"] == pytest.approx(3.0)
        assert latency_ms["max"] == pytest.approx(100.0)
        assert latency_ms["p99"] <= latency_ms["max"]

    def test_bounded_samples(self):
        metrics = ServiceMetrics()
        total = SERVING_SAMPLE_LIMIT + 100
        for index in range(total):
            metrics.record("knn", float(index), cached=False)
        # only the most recent SERVING_SAMPLE_LIMIT samples (100 .. total - 1)
        # feed the percentiles
        latency_ms = metrics.snapshot()["latency_ms"]
        assert latency_ms["mean"] == pytest.approx((100 + total - 1) / 2 * 1000.0)
        assert latency_ms["max"] == pytest.approx((total - 1) * 1000.0)
        assert metrics.queries == total

    def test_empty_snapshot_has_no_latency_block(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["queries"] == 0
        assert "latency_ms" not in snapshot

    def test_concurrent_records_are_not_lost(self):
        """8 threads x 2 000 records: every total exact, on both faces."""
        metrics = ServiceMetrics()
        threads_, rounds = 8, 2_000
        cost = SearchCost.from_dict({"distance_computations": 3, "buckets_scanned": 1})

        def hammer(worker: int):
            kind = "knn" if worker % 2 else "range"
            for i in range(rounds):
                metrics.record_queue_wait(0.001)
                metrics.record(kind, 0.002, cached=i % 4 == 0,
                               visited_partitions=("P0", f"P{worker}"),
                               cost=None if i % 4 == 0 else cost)

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(threads_)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # a lost update needs a badly timed switch
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)

        total = threads_ * rounds
        executed = total * 3 // 4
        snapshot = metrics.snapshot()
        assert snapshot["queries"] == total
        assert snapshot["queries_by_kind"] == {"knn": total // 2, "range": total // 2}
        assert snapshot["executed"] == executed
        assert snapshot["served_from_cache"] == total - executed
        assert snapshot["partition_loads"]["P0"] == total + rounds
        assert snapshot["partition_loads"]["P3"] == rounds
        assert snapshot["cost"] == {"distance_computations": 3 * executed,
                                    "buckets_scanned": executed}

        families = parse_exposition(metrics.registry.render())

        def series(name, family=None, **labels):
            return sum(sample.value for sample in families[family or name].samples
                       if sample.name == name and sample.labels == labels)

        assert series("repro_queries_total", kind="knn") == total // 2
        assert series("repro_queries_total", kind="range") == total // 2
        assert series("repro_queries_executed_total") == executed
        assert series("repro_queries_cached_total") == total - executed
        assert series("repro_partition_visits_total", partition="P0") == total + rounds
        assert series("repro_query_cost_total", counter="distance_computations") == \
            3 * executed
        assert series("repro_queue_wait_seconds_count",
                      family="repro_queue_wait_seconds") == total
        for kind in ("knn", "range"):
            assert series("repro_query_latency_seconds_count",
                          family="repro_query_latency_seconds", kind=kind) == executed // 2
