"""The index is a set of triples: inserting a present triple adds no point.

One rule, held by every write path — build, ``SemTreeIndex.insert_triple``,
``IngestingIndex.insert`` and WAL replay: a triple that already labels a
point in the tree or the delta is never stored again.  A new document id
still extends its provenance, and each id is kept once.
"""

import sys
import threading

from ingest_corpus import BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES
from repro.core import SemTreeConfig, SemTreeIndex
from repro.ingest import IngestingIndex
from repro.ingest.wal import WriteAheadLog
from repro.requirements import build_requirement_distance, build_requirement_vocabularies
from repro.service import QueryEngine, QuerySpec
from repro.service.snapshot import load_index, save_index


def count_projections(index, monkeypatch):
    """The triples ``index.embed_query`` is called with from now on."""
    calls = []
    real = index.embed_query

    def counting(triple):
        calls.append(triple)
        return real(triple)

    monkeypatch.setattr(index, "embed_query", counting)
    return calls


def exact_matches(index, triple):
    """The stored triples at distance 0 from ``triple``, with provenance."""
    return [(match.triple, match.documents) for match in index.range_query(triple, 0.0)
            if match.triple == triple]


class TestSemTreeIndex:
    def test_inserting_a_built_triple_adds_no_point(self, make_base):
        index = make_base()
        generation = index.generation
        index.insert_triple(BASE_TRIPLES[0])
        assert len(index) == len(BASE_TRIPLES)
        assert index.generation == generation
        nearest = index.k_nearest(BASE_TRIPLES[0], 2)
        assert nearest[0].triple == BASE_TRIPLES[0] and nearest[0].distance == 0.0
        assert nearest[1].triple != BASE_TRIPLES[0]

    def test_a_new_document_extends_provenance_and_moves_the_generation(self, make_base):
        index = make_base()
        generation = index.generation
        index.insert_triple(BASE_TRIPLES[0], document_id="d1")
        index.insert_triple(BASE_TRIPLES[0], document_id="d2")
        assert index.documents_of(BASE_TRIPLES[0]) == ("d1", "d2")
        assert index.generation == generation + 2
        index.insert_triple(BASE_TRIPLES[0], document_id="d1")
        assert index.generation == generation + 2
        assert len(index) == len(BASE_TRIPLES)

    def test_a_document_repeating_a_triple_records_its_id_once(self, distance,
                                                              tmp_path):
        index = SemTreeIndex(distance, SemTreeConfig(dimensions=3, bucket_size=4))
        index.add_triples(BASE_TRIPLES, document_id="docA")
        index.add_triple(BASE_TRIPLES[0], document_id="docA")
        index.build()
        assert index.documents_of(BASE_TRIPLES[0]) == ("docA",)
        index.insert_triple(BASE_TRIPLES[0], document_id="docA")
        assert index.documents_of(BASE_TRIPLES[0]) == ("docA",)
        save_index(index, tmp_path / "snap.json")
        loaded = load_index(tmp_path / "snap.json", distance)
        assert loaded.documents_of(BASE_TRIPLES[0]) == ("docA",)
        loaded.insert_triple(BASE_TRIPLES[0])
        assert len(loaded) == len(BASE_TRIPLES)

    def test_a_half_built_index_fed_the_rest_holds_one_point_per_triple(
            self, small_corpus, tmp_path):
        distance = build_requirement_distance(build_requirement_vocabularies(
            small_corpus.actor_names, small_corpus.parameter_values))
        documents = [document.to_rdf_document() for document in small_corpus.documents]
        distinct = set(small_corpus.all_triples())
        assert len(distinct) < len(small_corpus.all_triples())  # the corpus repeats

        def index_over(built_documents):
            index = SemTreeIndex(distance, SemTreeConfig(dimensions=4, bucket_size=8))
            for document in built_documents:
                index.add_document(document)
            return index.build()

        full = index_over(documents)
        half = len(documents) // 2
        fed = index_over(documents[:half])
        live = IngestingIndex(index_over(documents[:half]), tmp_path / "wal.jsonl",
                              compaction_threshold=7)
        for document in documents[half:]:
            for triple in document.triples:
                fed.insert_triple(triple, document_id=document.document_id)
                live.insert(triple, document_id=document.document_id)
                live.maybe_compact()
        assert len(full) == len(fed) == len(live) == len(distinct)
        for triple in distinct:
            assert fed.documents_of(triple) == full.documents_of(triple)
            assert live.base.documents_of(triple) == full.documents_of(triple)
        live.close()


class TestIngestingIndex:
    def test_a_present_triple_is_not_logged(self, make_base, tmp_path):
        live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        assert live.insert(BASE_TRIPLES[0]) == 0
        first = live.insert(INSERT_TRIPLES[0])
        assert live.insert(INSERT_TRIPLES[0]) == first == live.wal.last_seq
        assert live.insert(BASE_TRIPLES[1]) == first
        assert len(live.wal) == 1
        assert len(live) == len(BASE_TRIPLES) + 1

    def test_a_present_triple_is_never_projected(self, make_base, tmp_path,
                                                 monkeypatch):
        live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        live.insert(INSERT_TRIPLES[0])  # now in the delta
        calls = count_projections(live.base, monkeypatch)
        for triple in (BASE_TRIPLES[0], INSERT_TRIPLES[0]):
            for document_id in (None, "d1", "d1"):
                live.insert(triple, document_id=document_id)
        assert calls == []
        live.insert(INSERT_TRIPLES[1])
        assert calls == [INSERT_TRIPLES[1]]
        live.close()

    def test_replaying_a_provenance_only_record_projects_nothing(
            self, make_base, tmp_path, monkeypatch):
        wal_path = tmp_path / "wal.jsonl"
        with WriteAheadLog(wal_path) as wal:
            wal.append(INSERT_TRIPLES[0])
            wal.append(INSERT_TRIPLES[0], document_id="d1")
            wal.append(BASE_TRIPLES[0], document_id="d1")
        base = make_base()
        calls = count_projections(base, monkeypatch)
        live = IngestingIndex(base, wal_path)
        assert calls == [INSERT_TRIPLES[0]]
        assert exact_matches(live, INSERT_TRIPLES[0]) == [(INSERT_TRIPLES[0], ("d1",))]
        live.close()

    def test_two_identical_inserts_leave_one_match(self, make_base, tmp_path):
        live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        live.insert(INSERT_TRIPLES[0], document_id="d1")
        live.insert(INSERT_TRIPLES[0], document_id="d1")
        assert exact_matches(live, INSERT_TRIPLES[0]) == [(INSERT_TRIPLES[0], ("d1",))]
        assert len(live.wal) == 1
        live.insert(INSERT_TRIPLES[0], document_id="d2")
        assert exact_matches(live, INSERT_TRIPLES[0]) == \
            [(INSERT_TRIPLES[0], ("d1", "d2"))]
        assert len(live.delta) == 1 and len(live.wal) == 2

    def test_concurrent_identical_inserts_leave_one_point(self, make_base, tmp_path):
        live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        racers = 8
        start = threading.Barrier(racers)
        sequences = []

        def insert():
            start.wait(10.0)
            sequences.append(live.insert(INSERT_TRIPLES[0], document_id="d1"))

        threads = [threading.Thread(target=insert) for _ in range(racers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sequences == [1] * racers
        assert len(live) == len(BASE_TRIPLES) + 1 and len(live.wal) == 1
        assert exact_matches(live, INSERT_TRIPLES[0]) == [(INSERT_TRIPLES[0], ("d1",))]

    def test_an_insert_retried_across_a_restart_leaves_one_point(
            self, make_base, distance, tmp_path):
        wal_path, snap_path = tmp_path / "wal.jsonl", tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.checkpoint(snap_path)
        live.insert(INSERT_TRIPLES[0], document_id="d1")
        live.close()  # crash: no checkpoint
        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        assert recovered.insert(INSERT_TRIPLES[0], document_id="d1") == 1
        assert len(recovered) == len(BASE_TRIPLES) + 1
        assert len(recovered.wal) == 1
        recovered.close()

    def test_replay_of_a_repeated_record_keeps_one_point(self, make_base, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        with WriteAheadLog(wal_path) as wal:  # a log written before the rule
            wal.append(INSERT_TRIPLES[0], document_id="d1")
            wal.append(INSERT_TRIPLES[0], document_id="d1")
            wal.append(BASE_TRIPLES[0])
        live = IngestingIndex(make_base(), wal_path)
        assert len(live) == len(BASE_TRIPLES) + 1
        assert exact_matches(live, INSERT_TRIPLES[0]) == [(INSERT_TRIPLES[0], ("d1",))]
        live.close()

    def test_a_documented_tail_triple_survives_an_unfolded_checkpoint(
            self, make_base, distance, tmp_path):
        # The snapshot persists provenance for a triple that lives only in
        # the WAL tail; presence must come from the tree, not from that map.
        wal_path, snap_path = tmp_path / "wal.jsonl", tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.insert(INSERT_TRIPLES[0], document_id="d1")
        live.checkpoint(snap_path, compact_first=False)
        live.close()
        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        assert len(recovered) == len(BASE_TRIPLES) + 1
        assert len(recovered.delta) == 1
        assert exact_matches(recovered, INSERT_TRIPLES[0]) == \
            [(INSERT_TRIPLES[0], ("d1",))]
        recovered.close()

    def test_a_checkpoint_covers_a_provenance_only_record(self, make_base, distance,
                                                          tmp_path):
        wal_path, snap_path = tmp_path / "wal.jsonl", tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.insert(BASE_TRIPLES[0], document_id="d1")  # logged, stages no point
        assert (len(live.wal), len(live.delta)) == (1, 0)
        assert live.checkpoint(snap_path) == 1
        assert len(live.wal) == 0  # nothing left for a shard boot to call stale
        live.close()
        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        assert exact_matches(recovered, BASE_TRIPLES[0]) == [(BASE_TRIPLES[0], ("d1",))]
        recovered.close()

    def test_replay_and_snapshots_keep_each_document_once(self, make_base, distance,
                                                          tmp_path):
        wal_path, snap_path = tmp_path / "wal.jsonl", tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.checkpoint(snap_path)
        for triple in (INSERT_TRIPLES[0], BASE_TRIPLES[0]):
            live.insert(triple, document_id="docA")
            live.insert(triple, document_id="docA")
        live.close()
        replayed = IngestingIndex.recover(snap_path, wal_path, distance)
        for triple in (INSERT_TRIPLES[0], BASE_TRIPLES[0]):
            assert replayed.base.documents_of(triple) == ("docA",)
        replayed.checkpoint(snap_path)
        replayed.close()
        reloaded = IngestingIndex.recover(snap_path, wal_path, distance)
        for triple in (INSERT_TRIPLES[0], BASE_TRIPLES[0]):
            assert exact_matches(reloaded, triple) == [(triple, ("docA",))]
        reloaded.close()


class TestCachedProvenance:
    """Cached matches carry provenance: a provenance-only insert refreshes them."""

    def test_served_documents_equal_a_fresh_search(self, make_base, tmp_path):
        live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        live.insert(INSERT_TRIPLES[0], document_id="d1")  # a delta-resident triple
        engine = QueryEngine(live, workers=1, cache_capacity=16)
        queries = [QuerySpec.k_nearest(query, 3) for query in QUERY_TRIPLES]

        def served():
            return [[(str(m.triple), m.documents) for m in engine.execute(spec).matches]
                    for spec in queries]

        def fresh():
            return [[(str(m.triple), m.documents) for m in live.k_nearest(spec.triple, 3)]
                    for spec in queries]

        served()
        assert all(engine.execute(spec).cached for spec in queries)
        for triple in (BASE_TRIPLES[0], INSERT_TRIPLES[0]):
            live.insert(triple, document_id="d2")
            assert served() == fresh()  # the refill
            assert served() == fresh()  # and the hits after it
        assert all(engine.execute(spec).cached for spec in queries)
        assert ("d2",) in {documents for answer in fresh() for _, documents in answer}
        live.close()
