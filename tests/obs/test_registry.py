"""Tests for the typed metric instruments and the registry."""

import math
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs.prometheus import parse_exposition, validate_exposition
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry


class TestCounter:
    def test_inc_and_get(self):
        counter = MetricsRegistry().counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().get() == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_integer_increments_stay_integers(self):
        # What keeps counts JSON integers on /v1/metrics: the instrument
        # stores what it was given, the exposition side converts.
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(3)
        assert type(counter.labels().get()) is int
        (sample,) = counter.collect()
        assert type(sample.value) is float and sample.value == 4.0
        assert "c_total 4\n" in registry.render()

    def test_function_backed(self):
        source = {"value": 7}
        counter = MetricsRegistry().counter("c_total", "help")
        counter.set_function(lambda: source["value"])
        assert counter.labels().get() == 7.0
        source["value"] = 9
        assert counter.labels().get() == 9.0


class TestGauge:
    def test_set_inc_get(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.set(10.0)
        gauge.labels().inc(-3.0)
        assert gauge.labels().get() == 7.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "help",
                                       buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        counts, total, count = histogram.labels().get()
        assert counts == [1, 2, 1]        # 50.0 only lands in +Inf
        assert count == 5
        assert total == pytest.approx(56.05)

    def test_boundary_value_falls_in_its_bucket(self):
        # Prometheus buckets are `le` (less-or-equal): an observation equal
        # to a bound belongs to that bound's bucket.
        histogram = MetricsRegistry().histogram("h_seconds", "help",
                                                buckets=(1.0, 2.0))
        histogram.observe(1.0)
        counts, _, _ = histogram.labels().get()
        assert counts == [1, 0]

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.histogram("h", "help", buckets=(1.0, 0.5)).labels()
        with pytest.raises(ObservabilityError):
            registry.histogram("h2", "help", buckets=(1.0, 1.0)).labels()

    def test_collect_is_cumulative_with_inf_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 9.0):
            histogram.observe(value)
        samples = {(s.name, dict(s.labels).get("le")): s.value
                   for s in registry.collect()[0].collect()}
        assert samples[("h_seconds_bucket", "0.1")] == 1
        assert samples[("h_seconds_bucket", "1.0")] == 2
        assert samples[("h_seconds_bucket", "+Inf")] == 3
        assert samples[("h_seconds_count", None)] == 3
        assert samples[("h_seconds_sum", None)] == pytest.approx(9.55)


class TestFamilies:
    def test_labelled_children_are_cached(self):
        family = MetricsRegistry().counter("c_total", "help", ("kind",))
        family.labels("knn").inc()
        family.labels("knn").inc()
        family.labels("range").inc()
        values = {dict(s.labels)["kind"]: s.value for s in family.collect()}
        assert values == {"knn": 2.0, "range": 1.0}

    def test_wrong_label_arity_rejected(self):
        family = MetricsRegistry().counter("c_total", "help", ("kind",))
        with pytest.raises(ObservabilityError):
            family.labels("a", "b")

    def test_callback_enumerates_dynamic_labels(self):
        family = MetricsRegistry().counter("c_total", "help", ("partition",))
        state = {"P0": 1, "P1": 2}
        family.set_callback(
            lambda: {(name,): value for name, value in state.items()})
        state["P2"] = 3
        values = {dict(s.labels)["partition"]: s.value for s in family.collect()}
        assert values == {"P0": 1.0, "P1": 2.0, "P2": 3.0}

    def test_values_read_every_series_back(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", ("kind",))
        family.labels("knn").inc(2)
        family.labels("range").inc()
        assert family.values() == {("knn",): 2, ("range",): 1}
        assert family.by_label() == {"knn": 2, "range": 1}
        histogram = registry.histogram("h_seconds", "help", buckets=(1.0,))
        histogram.observe(0.5)
        assert histogram.values() == {(): ([1], 0.5, 1)}
        family.set_callback(lambda: {("P0",): 7})
        assert family.by_label() == {"P0": 7}

    def test_histogram_families_cannot_be_callback_backed(self):
        family = MetricsRegistry().histogram("h_seconds", "help")
        with pytest.raises(ObservabilityError):
            family.set_callback(lambda: {})


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("kind",))
        second = registry.counter("c_total", "other help", ("kind",))
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(ObservabilityError):
            registry.gauge("c_total", "help")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("kind",))
        with pytest.raises(ObservabilityError):
            registry.counter("c_total", "help", ("partition",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("1bad", "help")
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", "help", ("__reserved",))
        with pytest.raises(ObservabilityError):
            registry.histogram("h_seconds", "help", ("le",))

    def test_adopt_publishes_the_live_families_of_another_registry(self):
        owned = MetricsRegistry()
        counter = owned.counter("owned_total", "help")
        shell = MetricsRegistry()
        shell.counter("shell_total", "help")
        shell.adopt(owned)
        counter.inc(5)                      # after adoption: shared, not copied
        assert [family.name for family in shell.collect()] == \
            ["owned_total", "shell_total"]
        assert "owned_total 5\n" in shell.render()
        shell.adopt(owned)                  # the same families again: a no-op
        clash = MetricsRegistry()
        clash.counter("owned_total", "help")
        with pytest.raises(ObservabilityError):
            shell.adopt(clash)

    def test_collect_orders_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz_total", "help")
        registry.counter("aa_total", "help")
        assert [family.name for family in registry.collect()] == \
            ["aa_total", "zz_total"]

    def test_default_buckets_cover_the_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 5.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert not any(math.isinf(b) for b in DEFAULT_LATENCY_BUCKETS)

    def test_scrapes_race_child_creation_and_observations(self):
        """Stress: scrapers versus writers on one registry, no locks dropped.

        Scrape threads render the Prometheus exposition and walk
        ``collect()`` (the JSON path) while writer threads keep creating
        new labelled children and observing histograms.  Nothing may
        raise, every exposition snapshot must parse cleanly, and the
        counters visible in successive scrapes must be monotone.
        """
        registry = MetricsRegistry()
        counter = registry.counter("stress_total", "help", ("kind",))
        histogram = registry.histogram("stress_seconds", "help", ("kind",),
                                       buckets=(0.001, 0.01, 0.1))
        rounds, writers, scrapers = 400, 4, 3
        start = threading.Barrier(writers + scrapers)
        errors = []
        totals_seen = []

        def write(worker: int):
            try:
                start.wait()
                for i in range(rounds):
                    # A fresh label every few iterations races child
                    # creation against the scrapers' family walks.
                    counter.labels(f"w{worker}-{i % 17}").inc()
                    histogram.labels(f"w{worker}-{i % 5}").observe(0.004)
            except Exception as error:  # noqa: BLE001 - join reports it
                errors.append(error)

        def scrape():
            try:
                start.wait()
                seen = []
                for _ in range(rounds // 4):
                    families = parse_exposition(registry.render())
                    assert validate_exposition(families) == []
                    total = sum(sample.value
                                for sample in families["stress_total"].samples)
                    seen.append(total)
                    for family in registry.collect():
                        for sample in family.collect():
                            assert sample.value >= 0.0
                totals_seen.append(seen)
            except Exception as error:  # noqa: BLE001 - join reports it
                errors.append(error)

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        threads += [threading.Thread(target=scrape) for _ in range(scrapers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for seen in totals_seen:
            assert seen == sorted(seen)  # counters never move backwards
        final = sum(sample.value for sample in counter.collect())
        assert final == writers * rounds

    def test_concurrent_observations_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        histogram = registry.histogram("h_seconds", "help")

        def hammer():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.01)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.labels().get() == 4000.0
        _, _, count = histogram.labels().get()
        assert count == 4000
