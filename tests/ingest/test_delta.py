"""Delta segment mechanics and exact tree ∪ delta merge semantics."""

from ingest_corpus import INSERT_TRIPLES, QUERY_TRIPLES, canonical
from repro.core import LabeledPoint
from repro.ingest import DeltaIndex, IngestingIndex


class TestDeltaIndex:
    def test_add_and_snapshot(self):
        delta = DeltaIndex()
        a = LabeledPoint.of([0.1, 0.2], label="a")
        b = LabeledPoint.of([0.3, 0.4], label="b")
        delta.add(a)
        snapshot = delta.points()
        delta.add(b)
        assert snapshot == (a,)          # snapshots are frozen
        assert delta.points() == (a, b)  # duplicates/later adds visible in new ones
        assert len(delta) == 2

    def test_drain_empties_and_returns_the_points(self):
        delta = DeltaIndex()
        a = LabeledPoint.of([0.1], label="a")
        b = LabeledPoint.of([0.2], label="b")
        delta.add(a)
        delta.add(b)
        assert delta.drain() == (a, b)
        assert len(delta) == 0

    def test_neighbour_helpers_measure_from_the_query(self):
        delta = DeltaIndex()
        delta.add(LabeledPoint.of([0.0, 0.0], label="origin"))
        delta.add(LabeledPoint.of([3.0, 4.0], label="far"))
        query = LabeledPoint.of([0.0, 0.0])
        distances = sorted(n.distance for n in delta.all_neighbours(query))
        assert distances == [0.0, 5.0]
        within = delta.neighbours_within(query, 1.0)
        assert [n.point.label for n in within] == ["origin"]


class TestMergedReadsEqualRebuild:
    """Merged tree ∪ delta answers must equal a from-scratch rebuilt index."""

    def _oracle(self, make_base, inserted):
        oracle = make_base()
        for triple in inserted:
            oracle.insert_triple(triple)
        return oracle

    def test_knn_equals_rebuild_at_every_prefix(self, make_base, tmp_path):
        ingesting = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                                   compaction_threshold=10_000)
        for prefix in range(len(INSERT_TRIPLES) + 1):
            if prefix:
                ingesting.insert(INSERT_TRIPLES[prefix - 1])
            oracle = self._oracle(make_base, INSERT_TRIPLES[:prefix])
            for query in QUERY_TRIPLES:
                for k in (1, 3, len(ingesting)):
                    assert canonical(ingesting.k_nearest(query, k)) == \
                        canonical(oracle.k_nearest(query, k)), (prefix, str(query), k)

    def test_range_equals_rebuild_at_every_prefix(self, make_base, tmp_path):
        ingesting = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                                   compaction_threshold=10_000)
        for prefix in range(len(INSERT_TRIPLES) + 1):
            if prefix:
                ingesting.insert(INSERT_TRIPLES[prefix - 1])
            oracle = self._oracle(make_base, INSERT_TRIPLES[:prefix])
            for query in QUERY_TRIPLES:
                for radius in (0.0, 0.1, 0.3, 1.0):
                    assert canonical(ingesting.range_query(query, radius)) == \
                        canonical(oracle.range_query(query, radius))

    def test_duplicate_inserts_surface_as_one_match(self, make_base, tmp_path):
        ingesting = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                                   compaction_threshold=10_000)
        triple = INSERT_TRIPLES[0]
        ingesting.insert(triple)
        ingesting.insert(triple)
        assert len(ingesting.delta) == 1
        oracle = self._oracle(make_base, [triple, triple])
        assert canonical(ingesting.k_nearest(triple, 3)) == \
            canonical(oracle.k_nearest(triple, 3))
        exact = ingesting.range_query(triple, 0.0)
        assert [match.triple for match in exact] == [triple]
        assert canonical(exact) == canonical(oracle.range_query(triple, 0.0))

    def test_merge_spans_a_compaction_boundary(self, make_base, tmp_path):
        """Half the inserts folded into the tree, half still in the delta."""
        ingesting = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                                   compaction_threshold=10_000)
        half = len(INSERT_TRIPLES) // 2
        for triple in INSERT_TRIPLES[:half]:
            ingesting.insert(triple)
        assert ingesting.compact() == half
        for triple in INSERT_TRIPLES[half:]:
            ingesting.insert(triple)
        assert len(ingesting.delta) == len(INSERT_TRIPLES) - half
        oracle = self._oracle(make_base, INSERT_TRIPLES)
        for query in QUERY_TRIPLES:
            assert canonical(ingesting.k_nearest(query, 4)) == \
                canonical(oracle.k_nearest(query, 4))
            assert canonical(ingesting.range_query(query, 0.25)) == \
                canonical(oracle.range_query(query, 0.25))
