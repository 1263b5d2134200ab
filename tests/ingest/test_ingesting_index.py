"""IngestingIndex semantics: visibility, epochs, provenance, engine wiring."""

import itertools
import sys
import threading

import pytest

from ingest_corpus import ACTORS, BASE_TRIPLES, INSERT_TRIPLES, canonical
from repro.core import SemTreeConfig, SemTreeIndex
from repro.errors import EmbeddingError, IndexError_
from repro.ingest import IngestingIndex
from repro.rdf import Triple
from repro.requirements import (build_requirement_distance,
                                build_requirement_vocabularies)
from repro.service import QueryEngine, QuerySpec


@pytest.fixture
def ingesting(make_base, tmp_path):
    with IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                        compaction_threshold=4) as index:
        yield index


class TestConstruction:
    def test_requires_a_built_base(self, distance, tmp_path):
        with pytest.raises(IndexError_, match="built base"):
            IngestingIndex(SemTreeIndex(distance), tmp_path / "wal.jsonl")

    def test_rejects_nonpositive_threshold(self, make_base, tmp_path):
        with pytest.raises(IndexError_, match="compaction_threshold"):
            IngestingIndex(make_base(), tmp_path / "wal.jsonl", compaction_threshold=0)


class TestVisibility:
    def test_inserts_are_immediately_queryable(self, ingesting):
        triple = INSERT_TRIPLES[2]
        before = ingesting.k_nearest(triple, 1)
        assert before[0].triple != triple
        ingesting.insert(triple)
        after = ingesting.k_nearest(triple, 1)
        assert after[0].triple == triple
        assert after[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_len_spans_tree_and_delta(self, ingesting):
        tree_points = len(ingesting.base)
        ingesting.insert(INSERT_TRIPLES[0])
        assert len(ingesting) == tree_points + 1
        assert len(ingesting.delta) == 1

    def test_provenance_is_dressed_onto_matches(self, ingesting):
        triple = INSERT_TRIPLES[3]
        ingesting.insert(triple, document_id="doc-42")
        (match,) = ingesting.k_nearest(triple, 1)
        assert match.triple == triple
        assert "doc-42" in match.documents


class TestEpochs:
    def test_inserts_do_not_move_the_generation(self, ingesting):
        generation = ingesting.generation
        for triple in INSERT_TRIPLES[:3]:
            ingesting.insert(triple)
        assert ingesting.generation == generation

    def test_compaction_bumps_the_generation_exactly_once(self, ingesting):
        generation = ingesting.generation
        for triple in INSERT_TRIPLES[:3]:
            ingesting.insert(triple)
        assert ingesting.compact() == 3
        assert ingesting.generation == generation + 1
        assert len(ingesting.delta) == 0

    def test_empty_compaction_is_a_no_op(self, ingesting):
        generation = ingesting.generation
        assert ingesting.compact() == 0
        assert ingesting.generation == generation

    def test_compaction_preserves_answers(self, ingesting):
        for triple in INSERT_TRIPLES[:3]:
            ingesting.insert(triple)
        query = INSERT_TRIPLES[1]
        before_knn = canonical(ingesting.k_nearest(query, 4))
        before_range = canonical(ingesting.range_query(query, 0.3))
        ingesting.compact()
        assert canonical(ingesting.k_nearest(query, 4)) == before_knn
        assert canonical(ingesting.range_query(query, 0.3)) == before_range


class TestEngineWiring:
    def test_cache_entries_survive_inserts_and_stay_fresh(self, ingesting):
        """The tentpole behaviour: a cached answer is overlaid with the live
        delta instead of being invalidated per insert."""
        query = INSERT_TRIPLES[2]
        with QueryEngine(ingesting, workers=2) as engine:
            cold = engine.execute(QuerySpec.k_nearest(query, 2))
            assert not cold.cached
            warm = engine.execute(QuerySpec.k_nearest(query, 2))
            assert warm.cached

            ingesting.insert(query)

            fresh = engine.execute(QuerySpec.k_nearest(query, 2))
            # still a cache hit — and still the *correct*, insert-aware answer
            assert fresh.cached
            assert fresh.matches[0].triple == query
            assert fresh.matches[0].distance == pytest.approx(0.0, abs=1e-9)
            assert engine.cache.stats.invalidations == 0

    def test_compaction_invalidates_at_compaction_granularity(self, ingesting):
        query = INSERT_TRIPLES[2]
        with QueryEngine(ingesting, workers=2) as engine:
            engine.execute(QuerySpec.k_nearest(query, 2))
            for triple in INSERT_TRIPLES[:3]:
                ingesting.insert(triple)
            ingesting.compact()
            refreshed = engine.execute(QuerySpec.k_nearest(query, 2))
            assert not refreshed.cached
            assert engine.cache.stats.invalidations >= 1

    def test_batch_results_equal_sequential_baseline_mid_stream(self, ingesting):
        for triple in INSERT_TRIPLES[:5]:
            ingesting.insert(triple)
        specs = [QuerySpec.k_nearest(INSERT_TRIPLES[1], 3),
                 QuerySpec.range_query(INSERT_TRIPLES[4], 0.3),
                 QuerySpec.k_nearest(INSERT_TRIPLES[1], 3)]
        with QueryEngine(ingesting, workers=2) as engine:
            batch = engine.execute_batch(specs)
            sequential = engine.execute_sequential(specs)
        for concurrent, baseline in zip(batch, sequential):
            assert concurrent.matches == baseline.matches


class TestStatistics:
    def test_statistics_report_the_write_path(self, ingesting):
        for triple in INSERT_TRIPLES[:5]:
            ingesting.insert(triple)
        ingesting.compact()
        stats = ingesting.statistics()
        assert stats["inserts"] == 5
        assert stats["compactions"] == 1
        assert stats["points_compacted"] == 5
        assert stats["delta_points"] == 0
        assert stats["wal_records"] == 5
        assert stats["applied_seq"] == 5
        assert stats["ingest_qps"] > 0
        assert "compaction_ms" in stats


class TestProjection:
    def test_a_triple_that_fails_projection_is_never_logged(self, ingesting,
                                                             monkeypatch, tmp_path):
        real = ingesting.base.embed_query
        failures = iter([EmbeddingError("projection failed")])

        def embed_once_failing(triple):
            failure = next(failures, None)
            if failure is not None:
                raise failure
            return real(triple)

        monkeypatch.setattr(ingesting.base, "embed_query", embed_once_failing)
        points = len(ingesting)
        with pytest.raises(EmbeddingError):
            ingesting.insert(INSERT_TRIPLES[0])
        assert len(ingesting) == points
        assert len(ingesting.wal) == 0
        # What recovery would rebuild from this WAL serves the same points.
        recovered = IngestingIndex(ingesting.base, ingesting.wal.path)
        try:
            assert len(recovered) == points
        finally:
            recovered.close()
        # The next insert projects normally and takes the first sequence number.
        assert ingesting.insert(INSERT_TRIPLES[0]) == 1

    def test_concurrent_projection_equals_a_sequential_pass(self, tmp_path):
        """Cold semantic-distance memo caches, eight threads, no lock."""
        distance = build_requirement_distance(build_requirement_vocabularies(ACTORS))
        base = SemTreeIndex(distance, SemTreeConfig(
            dimensions=3, bucket_size=4, max_partitions=2, partition_capacity=8))
        base.add_triples(BASE_TRIPLES)
        base.build()
        known = BASE_TRIPLES + INSERT_TRIPLES
        terms = [sorted({t.projection(position) for t in known}, key=str)
                 for position in ("subject", "predicate", "object")]
        novel = [triple for triple in itertools.starmap(Triple, itertools.product(*terms))
                 if triple not in BASE_TRIPLES][::5][:64]
        assert len(novel) == 64
        live = IngestingIndex(base, tmp_path / "wal.jsonl")
        coordinates = [None] * len(novel)
        barrier = threading.Barrier(8)

        def embed(worker):
            barrier.wait(timeout=10.0)
            for position in range(worker, len(novel), 8):
                coordinates[position] = live.embed_query(novel[position]).coordinates

        threads = [threading.Thread(target=embed, args=(n,)) for n in range(8)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        sequential = [live.embed_query(triple).coordinates for triple in novel]
        live.close()
        assert coordinates == sequential
