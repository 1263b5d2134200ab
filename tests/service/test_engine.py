"""Tests for the query engine: batching, caching, search slots, deadlines."""

import threading
import time

import pytest

from repro.errors import QueryError
from repro.rdf import TriplePattern
from repro.service import QueryEngine, QuerySpec
from repro.workloads import mixed_query_specs


def distinct_queries(index, triples, count):
    """``count`` k-NN specs whose triples embed to distinct points."""
    specs, points = [], set()
    for triple in dict.fromkeys(triples):
        point = index.embed_query(triple).coordinates
        if point not in points:
            points.add(point)
            specs.append(QuerySpec.k_nearest(triple, 3))
        if len(specs) == count:
            return specs
    raise AssertionError(f"the corpus has fewer than {count} distinct query points")


def counting_run(engine_, delay=0.0, gate=None):
    """Wrap ``engine_._run``: record each call's thread, then sleep or wait."""
    real_run = engine_._run
    threads = []

    def run(planned):
        threads.append(threading.current_thread())
        if gate is not None:
            gate(planned)
        time.sleep(delay)
        return real_run(planned)

    return run, threads


@pytest.fixture
def engine(built_requirements_index):
    index, _, corpus = built_requirements_index
    with QueryEngine(index, workers=4) as engine:
        yield engine, corpus


class TestSingleQueries:
    def test_knn_matches_the_index_facade(self, engine):
        engine_, corpus = engine
        triple = corpus.all_triples()[0]
        result = engine_.execute(QuerySpec.k_nearest(triple, 3))
        assert result.ok
        assert list(result.matches) == engine_.index.k_nearest(triple, 3)

    def test_range_matches_the_index_facade(self, engine):
        engine_, corpus = engine
        triple = corpus.all_triples()[0]
        result = engine_.execute(QuerySpec.range_query(triple, 0.2))
        assert result.ok
        assert list(result.matches) == engine_.index.range_query(triple, 0.2)

    def test_pattern_filter_restricts_results(self, engine):
        engine_, corpus = engine
        triple = corpus.all_triples()[0]
        pattern = TriplePattern(subject=triple.subject)
        result = engine_.execute(QuerySpec.k_nearest(triple, 5, pattern=pattern))
        assert result.ok
        assert len(result.matches) >= 1
        assert all(match.triple.subject == triple.subject for match in result.matches)
        assert all(pattern.matches(match.triple) for match in result.matches)

    def test_pattern_filter_on_range_queries(self, engine):
        engine_, corpus = engine
        triple = corpus.all_triples()[0]
        pattern = TriplePattern(predicate=triple.predicate)
        result = engine_.execute(QuerySpec.range_query(triple, 0.3, pattern=pattern))
        unfiltered = engine_.execute(QuerySpec.range_query(triple, 0.3))
        assert all(pattern.matches(match.triple) for match in result.matches)
        expected = [m for m in unfiltered.matches if pattern.matches(m.triple)]
        assert list(result.matches) == expected


class TestBatchExecution:
    def test_acceptance_batch_of_256_equals_sequential(self, engine):
        """A batch of >= 256 mixed k-NN/range queries over 4 workers returns
        results identical to sequential execution (the PR's acceptance bar)."""
        engine_, corpus = engine
        triples = list(dict.fromkeys(corpus.all_triples()))
        specs = mixed_query_specs(triples, 256, k=3, radius=0.15, seed=11)
        batch = engine_.execute_batch(specs)
        sequential = engine_.execute_sequential(specs)
        assert len(batch) == len(sequential) == 256
        for concurrent_result, sequential_result in zip(batch, sequential):
            assert concurrent_result.ok
            assert concurrent_result.matches == sequential_result.matches

    def test_results_come_back_in_input_order(self, engine):
        engine_, corpus = engine
        triples = corpus.all_triples()
        specs = [QuerySpec.k_nearest(t, 2) for t in triples[:10]]
        results = engine_.execute_batch(specs)
        assert [r.spec for r in results] == specs

    def test_in_batch_duplicates_execute_once(self, engine):
        engine_, corpus = engine
        triple = corpus.all_triples()[0]
        spec = QuerySpec.k_nearest(triple, 3)
        results = engine_.execute_batch([spec, spec, spec])
        assert all(r.matches == results[0].matches for r in results)
        assert not results[0].cached           # the one that ran
        assert results[1].cached and results[2].cached

    def test_repeated_workload_has_nonzero_cache_hit_rate(self, engine):
        engine_, corpus = engine
        triples = list(dict.fromkeys(corpus.all_triples()))
        specs = mixed_query_specs(triples, 64, seed=3)
        first = engine_.execute_batch(specs)
        second = engine_.execute_batch(specs)
        assert engine_.cache.stats.hit_rate > 0.0
        assert all(r.cached for r in second)
        for a, b in zip(first, second):
            assert a.matches == b.matches

    def test_empty_batch(self, engine):
        engine_, _ = engine
        assert engine_.execute_batch([]) == []

    def test_batch_is_deterministic_across_worker_counts(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        triples = list(dict.fromkeys(corpus.all_triples()))
        specs = mixed_query_specs(triples, 48, seed=5)
        outcomes = []
        for workers in (1, 4, 8):
            with QueryEngine(index, workers=workers) as engine_:
                outcomes.append([r.matches for r in engine_.execute_batch(specs)])
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestDeadlines:
    def test_slow_query_times_out(self, built_requirements_index, monkeypatch):
        index, _, corpus = built_requirements_index
        triple = corpus.all_triples()[0]
        with QueryEngine(index, workers=2) as engine_:
            slow_run = engine_._run

            def delayed(planned):
                time.sleep(0.25)
                return slow_run(planned)

            monkeypatch.setattr(engine_, "_run", delayed)
            result = engine_.execute(QuerySpec.k_nearest(triple, 3, deadline=0.02))
            assert result.timed_out
            assert not result.ok
            assert result.matches == ()

    def test_default_deadline_applies(self, built_requirements_index, monkeypatch):
        index, _, corpus = built_requirements_index
        triple = corpus.all_triples()[0]
        with QueryEngine(index, workers=2, default_deadline=0.02) as engine_:
            slow_run = engine_._run

            def delayed(planned):
                time.sleep(0.25)
                return slow_run(planned)

            monkeypatch.setattr(engine_, "_run", delayed)
            assert engine_.execute(QuerySpec.k_nearest(triple, 3)).timed_out

    def test_generous_deadline_succeeds(self, engine):
        engine_, corpus = engine
        triple = corpus.all_triples()[0]
        result = engine_.execute(QuerySpec.k_nearest(triple, 3, deadline=30.0))
        assert result.ok and result.matches

    def test_in_batch_duplicates_keep_their_own_deadlines(self, built_requirements_index,
                                                          monkeypatch):
        index, _, corpus = built_requirements_index
        triple = corpus.all_triples()[0]
        with QueryEngine(index, workers=2) as engine_:
            real_run = engine_._run

            def delayed(planned):
                time.sleep(0.1)
                return real_run(planned)

            monkeypatch.setattr(engine_, "_run", delayed)
            generous = QuerySpec.k_nearest(triple, 3, deadline=10.0)
            strict = QuerySpec.k_nearest(triple, 3, deadline=0.01)
            results = engine_.execute_batch([generous, strict])
            assert results[0].ok and results[0].matches
            assert results[1].timed_out

        # ... regardless of which duplicate comes first in the batch
        # (fresh engine: the first one's cache would serve the repeat instantly)
        with QueryEngine(index, workers=2) as engine_:
            real_run = engine_._run

            def delayed_again(planned):
                time.sleep(0.1)
                return real_run(planned)

            monkeypatch.setattr(engine_, "_run", delayed_again)
            results = engine_.execute_batch([strict, generous])
            assert results[0].timed_out
            assert results[1].ok and results[1].matches

    def test_a_spec_out_of_budget_before_its_turn_is_not_searched(
            self, built_requirements_index, monkeypatch):
        index, _, corpus = built_requirements_index
        slow, other = distinct_queries(index, corpus.all_triples(), 2)
        strict = QuerySpec.k_nearest(other.triple, 3, deadline=0.01)
        with QueryEngine(index, workers=2) as engine_:
            run, threads = counting_run(engine_, delay=0.1)
            monkeypatch.setattr(engine_, "_run", run)
            results = engine_.execute_batch([slow, strict])
        assert results[0].ok and results[0].matches
        assert results[1].timed_out
        assert len(threads) == 1

    def test_a_search_past_its_deadline_still_fills_the_cache(
            self, built_requirements_index, monkeypatch):
        index, _, corpus = built_requirements_index
        triple = corpus.all_triples()[0]
        with QueryEngine(index, workers=2) as engine_:
            run, threads = counting_run(engine_, delay=0.3)
            monkeypatch.setattr(engine_, "_run", run)
            late = engine_.execute(QuerySpec.k_nearest(triple, 3, deadline=0.05))
            assert late.timed_out
            again = engine_.execute(QuerySpec.k_nearest(triple, 3))
        assert again.ok and again.cached and again.matches
        assert len(threads) == 1


class TestCallerThread:
    def test_serving_starts_no_thread(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        specs = distinct_queries(index, corpus.all_triples(), 8)
        with QueryEngine(index, workers=4) as engine_:
            before = {thread.name for thread in threading.enumerate()}
            results = engine_.execute_batch(specs)
            engine_.execute(QuerySpec.range_query(specs[0].triple, 0.2))
            after = {thread.name for thread in threading.enumerate()}
        assert all(result.ok and not result.cached for result in results)
        assert after - before == set()

    def test_searches_run_on_the_callers_thread(self, built_requirements_index,
                                                 monkeypatch):
        index, _, corpus = built_requirements_index
        specs = distinct_queries(index, corpus.all_triples(), 4)
        with QueryEngine(index, workers=4) as engine_:
            run, threads = counting_run(engine_)
            monkeypatch.setattr(engine_, "_run", run)
            engine_.execute_batch(specs)
        assert threads == [threading.current_thread()] * len(specs)

    def test_workers_bound_the_searches_running_at_once(self, built_requirements_index,
                                                         monkeypatch):
        index, _, corpus = built_requirements_index
        specs = distinct_queries(index, corpus.all_triples(), 6)
        release = threading.Event()
        lock = threading.Lock()
        running = [0]
        most = [0]

        def gate(planned):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            release.wait(10.0)
            with lock:
                running[0] -= 1

        with QueryEngine(index, workers=2) as engine_:
            run, _ = counting_run(engine_, gate=gate)
            monkeypatch.setattr(engine_, "_run", run)
            results = [None] * len(specs)

            def serve(position):
                results[position] = engine_.execute(specs[position])

            callers = [threading.Thread(target=serve, args=(position,))
                       for position in range(len(specs))]
            for caller in callers:
                caller.start()
            waited_until = time.monotonic() + 10.0
            while engine_.outstanding() < len(specs) and time.monotonic() < waited_until:
                time.sleep(0.01)
            time.sleep(0.1)
            outstanding_while_blocked = engine_.outstanding()
            running_while_blocked = running[0]
            release.set()
            for caller in callers:
                caller.join(10.0)
            assert not any(caller.is_alive() for caller in callers)
            assert outstanding_while_blocked == len(specs)
            assert running_while_blocked == 2
            assert most[0] == 2
            assert engine_.outstanding() == 0
            assert all(result.ok for result in results)


class TestFailures:
    def test_worker_errors_are_reported_per_query(self, built_requirements_index,
                                                  monkeypatch):
        index, _, corpus = built_requirements_index
        triple = corpus.all_triples()[0]
        with QueryEngine(index, workers=2) as engine_:
            def explode(planned):
                raise RuntimeError("partition on fire")

            monkeypatch.setattr(engine_, "_run", explode)
            result = engine_.execute(QuerySpec.k_nearest(triple, 3))
            assert not result.ok
            assert "partition on fire" in result.error
            assert result.matches == ()

    def test_closed_engine_refuses_queries(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        engine_ = QueryEngine(index, workers=1)
        engine_.close()
        with pytest.raises(QueryError):
            engine_.execute(QuerySpec.k_nearest(corpus.all_triples()[0], 1))

    def test_invalid_worker_count_rejected(self, built_requirements_index):
        index, _, _ = built_requirements_index
        with pytest.raises(QueryError):
            QueryEngine(index, workers=0)


class TestObservability:
    def test_statistics_cover_cache_and_latency(self, engine):
        engine_, corpus = engine
        triples = list(dict.fromkeys(corpus.all_triples()))
        specs = mixed_query_specs(triples, 64, seed=9)
        engine_.execute_batch(specs)
        engine_.execute_batch(specs)
        stats = engine_.statistics()
        assert stats["queries"] == 128
        assert stats["executed"] > 0
        assert stats["served_from_cache"] > 0
        assert stats["qps"] > 0
        assert stats["cache"]["hit_rate"] > 0
        assert stats["latency_ms"]["p50"] >= 0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        assert stats["workers"] == 4

    def test_partition_loads_are_recorded(self, engine):
        engine_, corpus = engine
        triples = list(dict.fromkeys(corpus.all_triples()))
        engine_.execute_batch([QuerySpec.k_nearest(t, 3) for t in triples[:20]])
        loads = engine_.metrics.partition_loads()
        assert loads, "expected at least the root partition to be loaded"
        assert "P0" in loads
        assert all(count > 0 for count in loads.values())
