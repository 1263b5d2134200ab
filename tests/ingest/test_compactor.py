"""The threshold fold: ``IngestingIndex.maybe_compact`` and the server's
rule that the request which crossed the threshold pays for it."""

import sys
import threading

from ingest_corpus import ACTORS, INSERT_TRIPLES
from repro.ingest import IngestingIndex
from repro.io.serialization import triple_to_dict
from repro.rdf import Triple
from repro.server import ServerApp


def insert_body(triple):
    return {"triple": triple_to_dict(triple)}


class TestCompactor:
    def test_maybe_compact_respects_the_threshold(self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                               compaction_threshold=3)
        index.insert(INSERT_TRIPLES[0])
        index.insert(INSERT_TRIPLES[1])
        assert not index.should_compact()
        assert index.maybe_compact() == 0
        index.insert(INSERT_TRIPLES[2])
        assert index.should_compact()
        assert index.maybe_compact() == 3
        assert len(index.delta) == 0

    def test_inserts_and_replay_never_fold_on_their_own(self, make_base, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        index = IngestingIndex(make_base(), wal_path, compaction_threshold=2)
        for triple in INSERT_TRIPLES[:5]:
            index.insert(triple)
        assert len(index.delta) == 5 and index.metrics.compactions == 0
        index.close()
        replayed = IngestingIndex(make_base(), wal_path, compaction_threshold=2)
        assert len(replayed.delta) == 5 and replayed.metrics.compactions == 0

    def test_callers_crossing_together_fold_once(self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                               compaction_threshold=4)
        for triple in INSERT_TRIPLES[:3]:
            index.insert(triple)
        both_inserted = threading.Barrier(2)
        folded = []

        def insert_then_fold(triple):
            index.insert(triple)
            both_inserted.wait(5.0)
            folded.append(index.maybe_compact())

        threads = [threading.Thread(target=insert_then_fold, args=(triple,))
                   for triple in INSERT_TRIPLES[3:5]]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(folded) == [0, 5]
        assert index.metrics.compactions == 1
        assert len(index.delta) == 0

    def test_many_inserters_fold_only_full_deltas_and_lose_nothing(
            self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                               compaction_threshold=3)
        base_points = len(index)
        workers, per_worker = 8, 6
        # Distinct triples: the index is a set, and every one must land.
        stream = [Triple.of(ACTORS[n % len(ACTORS)], "Fun:raise_signal",
                            f"SigType:sig-{n:02d}") for n in range(workers * per_worker)]

        def insert_and_fold(worker):
            for step in range(per_worker):
                index.insert(stream[worker * per_worker + step])
                index.maybe_compact()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=insert_and_fold, args=(worker,))
                       for worker in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        inserted = workers * per_worker
        stats = index.statistics()
        # The recheck under the fold lock: no fold ever took a short delta.
        assert stats["points_compacted"] >= stats["compactions"] * 3 > 0
        assert stats["points_compacted"] + stats["delta_points"] == inserted
        assert len(index) == base_points + inserted

    def test_queries_stay_correct_while_it_runs(self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                               compaction_threshold=2)
        query = INSERT_TRIPLES[2]
        for triple in INSERT_TRIPLES:
            index.insert(triple)
            (best,) = index.k_nearest(triple, 1)
            assert best.triple == triple  # the fresh insert always wins
            index.maybe_compact()
            (best,) = index.k_nearest(triple, 1)
            assert best.triple == triple  # and still does after a fold
        assert len(index.delta) < index.compaction_threshold
        assert index.metrics.compactions == len(INSERT_TRIPLES) // 2
        (best,) = index.k_nearest(query, 1)
        assert best.triple == query


class TestServerAppFolds:
    def test_folds_when_the_threshold_is_crossed(self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                               compaction_threshold=3)
        app = ServerApp(index)
        try:
            generation = index.generation
            responses = [app.handle_insert(insert_body(triple))
                         for triple in INSERT_TRIPLES[:3]]
            assert [r["delta_points"] for r in responses] == [1, 2, 0]
            assert index.generation == generation + 1
            assert app.metrics()["ingest"]["compactions"] == 1
        finally:
            app.close()

    def test_construction_starts_no_fold_thread(self, make_base, tmp_path):
        before = set(threading.enumerate())
        app = ServerApp(IngestingIndex(make_base(), tmp_path / "wal.jsonl"))
        try:
            started = [t.name for t in set(threading.enumerate()) - before]
            assert not [name for name in started if "compact" in name], started
        finally:
            app.close()
