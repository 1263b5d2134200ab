"""Wire-vs-oracle property test: the transport never changes an answer.

A seeded random workload of interleaved inserts, k-NN and range queries
runs against a live HTTP server while an in-process
:class:`~repro.core.SemTreeIndex` oracle applies the same operations.
Every query's wire answer must equal the oracle's — so the framing layer,
the dispatch path, the engine result cache *and* the transport's wire-byte
cache (enabled here precisely to prove its insert invalidation) are all
transparent to correctness.
"""

from __future__ import annotations

import random

import pytest

from server_corpus import BASE_TRIPLES, INSERT_TRIPLES, STREAM_TRIPLES, canonical
from repro.workloads import ServerClient

SEED = 20260808
STEPS = 120


def test_random_workload_matches_in_process_oracle(make_server, make_base):
    server, _ = make_server(server_kwargs={"wire_cache": True})
    oracle = make_base()  # the identical deterministic base index
    rng = random.Random(SEED)
    pool = list(INSERT_TRIPLES + STREAM_TRIPLES)
    visible = list(BASE_TRIPLES)
    queries = inserts = 0
    with ServerClient(server.url) as client:
        for _ in range(STEPS):
            action = rng.random()
            if action < 0.25 and pool:
                triple = pool.pop(0)
                client.insert(triple)
                oracle.insert_triples([triple])
                visible.append(triple)
                inserts += 1
            elif action < 0.70:
                triple = visible[rng.randrange(len(visible))]
                k = rng.randint(1, 4)
                wire = client.knn(triple, k)
                assert wire["error"] is None
                assert canonical(wire["matches"]) == \
                    canonical(oracle.k_nearest(triple, k)), \
                    f"knn({triple}, {k}) diverged after {inserts} inserts"
                queries += 1
            else:
                triple = visible[rng.randrange(len(visible))]
                radius = rng.choice([0.15, 0.3, 0.5])
                wire = client.range(triple, radius)
                assert canonical(wire["matches"]) == \
                    canonical(oracle.range_query(triple, radius)), \
                    f"range({triple}, {radius}) diverged after {inserts} inserts"
                queries += 1
    assert queries > 50 and inserts > 10  # the seed exercised both paths
    stats = server.wire_cache_stats()
    # The workload repeats queries, so the byte cache genuinely served
    # hits — meaning the equality above also proves its invalidation.
    assert stats["hits"] > 0
    assert stats["misses"] > 0


def test_identical_queries_stay_identical_across_inserts(make_server):
    """The hot-loop shape wire caches get wrong first: ask, insert a
    point that changes the answer, ask the same bytes again."""
    server, _ = make_server(server_kwargs={"wire_cache": True})
    with ServerClient(server.url) as client:
        before = client.knn(INSERT_TRIPLES[0], 3)
        repeat = client.knn(INSERT_TRIPLES[0], 3)
        assert canonical(repeat["matches"]) == canonical(before["matches"])
        client.insert(INSERT_TRIPLES[0])  # exact match now exists
        after = client.knn(INSERT_TRIPLES[0], 3)
        texts = [match["text"] for match in after["matches"]]
        assert str(INSERT_TRIPLES[0]) in texts
        assert after["matches"][0]["distance"] == pytest.approx(0.0)


def test_an_insert_empties_the_cache_and_the_hit_miss_trace_stands(make_server):
    """Epochs only move forward, so an insert leaves no entry that could hit:
    all of them go at once, and hits/misses read as if each had been found
    stale one at a time."""
    server, _ = make_server(server_kwargs={"wire_cache": True})
    first, second = BASE_TRIPLES[0], BASE_TRIPLES[1]

    def counters():
        stats = server.wire_cache_stats()
        return stats["hits"], stats["misses"], stats["entries"]

    with ServerClient(server.url) as client:
        script = [
            (lambda: client.knn(first, 2), (0, 1, 1)),
            (lambda: client.knn(first, 2), (1, 1, 1)),
            (lambda: client.range(second, 0.3), (1, 2, 2)),
            (lambda: client.insert(INSERT_TRIPLES[0]), (1, 2, 0)),
            (lambda: client.knn(first, 2), (1, 3, 1)),
            (lambda: client.knn(first, 2), (2, 3, 1)),
            (lambda: client.insert(INSERT_TRIPLES[1]), (2, 3, 0)),
            (lambda: client.range(second, 0.3), (2, 4, 1)),
            (lambda: client.range(second, 0.3), (3, 4, 1)),
        ]
        for step, (request, expected) in enumerate(script):
            request()
            assert counters() == expected, f"step {step}"
