"""The acceptance property: mixed insert/query workloads equal a rebuild oracle.

Two layers of evidence:

* property-style *deterministic interleavings* — random (seeded) shuffles of
  inserts and queries are applied one step at a time; after every step each
  query through the :class:`QueryEngine` must answer exactly like an index
  rebuilt from scratch over the triples inserted so far;
* a genuinely *threaded* mixed workload — an inserter thread streams
  triples, folding whenever its insert crosses the threshold, while query
  threads hammer the engine;
  every answer must be exact for the prefix of the insert stream it
  observed, and the final quiesced state must equal the full oracle.
"""

import random
import threading

import pytest

from ingest_corpus import BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES, canonical
from repro.ingest import IngestingIndex
from repro.service import QueryEngine, QuerySpec


def rebuild_oracle(make_base, inserted):
    oracle = make_base()
    for triple in inserted:
        oracle.insert_triple(triple)
    return oracle


class TestDeterministicInterleavings:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_every_interleaving_matches_the_rebuild_oracle(self, make_base, tmp_path,
                                                           seed):
        rng = random.Random(seed)
        operations = (
            [("insert", triple) for triple in INSERT_TRIPLES]
            + [("knn", (query, rng.randint(1, 5))) for query in QUERY_TRIPLES]
            + [("range", (query, rng.choice([0.05, 0.2, 0.4])))
               for query in QUERY_TRIPLES]
        )
        rng.shuffle(operations)

        ingesting = IngestingIndex(make_base(), tmp_path / f"wal-{seed}.jsonl",
                                   compaction_threshold=3)
        inserted = []
        with QueryEngine(ingesting, workers=2) as engine:
            for operation, payload in operations:
                if operation == "insert":
                    ingesting.insert(payload)
                    inserted.append(payload)
                    if ingesting.should_compact():
                        ingesting.compact()
                    continue
                oracle = rebuild_oracle(make_base, inserted)
                if operation == "knn":
                    query, k = payload
                    served = engine.execute(QuerySpec.k_nearest(query, k))
                    expected = oracle.k_nearest(query, k)
                else:
                    query, radius = payload
                    served = engine.execute(QuerySpec.range_query(query, radius))
                    expected = oracle.range_query(query, radius)
                assert served.ok
                assert canonical(served.matches) == canonical(expected), \
                    (operation, str(payload))

    def test_batches_interleaved_with_inserts_match_the_oracle(self, make_base,
                                                               tmp_path):
        ingesting = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                                   compaction_threshold=2)
        specs = [QuerySpec.k_nearest(query, 3) for query in QUERY_TRIPLES]
        inserted = []
        with QueryEngine(ingesting, workers=3) as engine:
            for triple in INSERT_TRIPLES:
                ingesting.insert(triple)
                inserted.append(triple)
                if ingesting.should_compact():
                    ingesting.compact()
                oracle = rebuild_oracle(make_base, inserted)
                for spec, result in zip(specs, engine.execute_batch(specs)):
                    assert canonical(result.matches) == \
                        canonical(oracle.k_nearest(spec.triple, spec.k))


class TestThreadedMixedWorkload:
    def test_no_quiescing_and_exact_prefix_answers(self, make_base, tmp_path):
        """Queries and inserts genuinely interleave: no coordination beyond
        the index's own locks, every answer exact for an observed prefix."""
        ingesting = IngestingIndex(make_base(), tmp_path / "wal.jsonl",
                                   compaction_threshold=3)
        # Repeats included on purpose: each one must leave the index unchanged.
        stream = INSERT_TRIPLES * 3
        errors = []
        # Pre-compute every legal prefix answer so query threads can assert
        # without re-running FastMap in the oracle while threads interleave.
        query, k = QUERY_TRIPLES[0], 3
        legal = []
        for prefix in range(len(stream) + 1):
            oracle = rebuild_oracle(make_base, stream[:prefix])
            legal.append(canonical(oracle.k_nearest(query, k)))
        spec = QuerySpec.k_nearest(query, k)

        with QueryEngine(ingesting, workers=3) as engine:

            def insert_worker():
                try:
                    for triple in stream:
                        ingesting.insert(triple)
                        ingesting.maybe_compact()
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            def query_worker():
                try:
                    for _ in range(40):
                        result = engine.execute(spec)
                        assert result.ok
                        answer = canonical(result.matches)
                        assert answer in legal, answer
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=insert_worker)] + [
                threading.Thread(target=query_worker) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert errors == []
            # quiesced end state: every insert visible, exact final answer
            final = engine.execute(spec)
            assert canonical(final.matches) == legal[-1]
            assert len(ingesting) == len(BASE_TRIPLES) + len(set(stream))

        stats = ingesting.statistics()
        assert stats["inserts"] == len(stream)
        assert stats["compactions"] >= 1

    def test_threaded_stream_then_recovery_round_trip(self, make_base, distance,
                                                      tmp_path):
        """Concurrent stream, checkpoint mid-flight, crash, recover: the
        recovered index equals the full oracle."""
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        ingesting = IngestingIndex(make_base(), wal_path, compaction_threshold=4)
        half = len(INSERT_TRIPLES) // 2

        for triple in INSERT_TRIPLES[:half]:
            ingesting.insert(triple)
        ingesting.checkpoint(snap_path, compact_first=True, truncate_wal=False)

        inserters = [
            threading.Thread(target=ingesting.insert, args=(triple,))
            for triple in INSERT_TRIPLES[half:]
        ]
        for thread in inserters:
            thread.start()
        for thread in inserters:
            thread.join()
        del ingesting  # crash: no close, no final checkpoint

        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        oracle = rebuild_oracle(make_base, INSERT_TRIPLES)
        for query in QUERY_TRIPLES:
            assert canonical(recovered.k_nearest(query, 5)) == \
                canonical(oracle.k_nearest(query, 5))
