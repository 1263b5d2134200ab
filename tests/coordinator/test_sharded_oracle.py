"""ShardedIndex oracle: scatter-gather answers equal the sequential tree.

The acceptance contract of the sharded deployment: a coordinator over real
HTTP shard servers answers a mixed k-NN/range workload identically to the
single-process :class:`DistributedSemTree` (exact distances; triple sets
exact up to order inside exactly-tied groups), under concurrent load, and
a lost shard produces a structured partial failure rather than a silently
partial answer.  Restarting the shard restores exactness.
"""

from __future__ import annotations

import random

import pytest

from coordinator_corpus import assert_equivalent
from repro.coordinator import ShardedIndex, ShardTopology
from repro.errors import ShardError
from repro.server import ShardApp, SemTreeServer
from repro.service.engine import QueryEngine
from repro.service.planner import QuerySpec


def mixed_specs(triples, count, *, k=4, radius=0.2, seed=7):
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        triple = triples[rng.randrange(len(triples))]
        if rng.random() < 0.6:
            specs.append(QuerySpec.k_nearest(triple, k))
        else:
            specs.append(QuerySpec.range_query(triple, radius))
    return specs


@pytest.fixture
def sharded(corpus_index, shard_fleet, make_transport):
    index, triples, _ = corpus_index
    _, topology = shard_fleet
    view = ShardedIndex(index, make_transport(topology))
    yield view, index, triples
    view.close()


def test_mixed_workload_matches_sequential_oracle(sharded):
    view, index, triples = sharded
    oracle = QueryEngine(index, workers=1)
    engine = QueryEngine(view, workers=4)
    specs = mixed_specs(triples, 40)
    try:
        expected = oracle.execute_sequential(specs)
        actual = engine.execute_batch(specs)
        for spec, got, want in zip(specs, actual, expected):
            assert got.ok, got.error
            assert_equivalent(got.matches, want.matches,
                              truncated=spec.kind.value == "knn")
    finally:
        engine.close()
        oracle.close()


def test_concurrent_batches_stay_exact(sharded):
    """Many engine workers × many scatter threads: answers never change."""
    view, index, triples = sharded
    oracle = QueryEngine(index, workers=1)
    engine = QueryEngine(view, workers=8, cache_capacity=8)
    specs = mixed_specs(triples, 30, seed=23)
    try:
        expected = oracle.execute_sequential(specs)
        for _ in range(3):  # repeated batches: cache + fresh executions mix
            actual = engine.execute_batch(specs)
            for spec, got, want in zip(specs, actual, expected):
                assert got.ok, got.error
                assert_equivalent(got.matches, want.matches,
                                  truncated=spec.kind.value == "knn")
    finally:
        engine.close()
        oracle.close()


def test_partition_pruning_bounds_range_fanout(sharded):
    """A tiny-radius range query must not scan every partition."""
    view, index, triples = sharded
    point = index.embed_query(triples[0])
    targets_small = view._range_targets(point, 1e-9)
    targets_large = view._range_targets(point, 100.0)
    assert set(targets_small) <= set(targets_large)
    assert len(targets_large) == len(view._data_partitions)
    # The pruned fan-out is what the outcome reports as visited partitions.
    outcome = view.search_range(point, 1e-9)
    assert outcome.visited_partitions == targets_small


def test_shard_loss_is_a_structured_partial_failure(corpus_index, shard_fleet,
                                                    make_transport):
    index, triples, data_partitions = corpus_index
    servers, topology = shard_fleet
    view = ShardedIndex(index, make_transport(topology))
    engine = QueryEngine(view, workers=2)
    victim = data_partitions[0]
    try:
        servers[victim].close()
        point = index.embed_query(triples[0])
        with pytest.raises(ShardError) as excinfo:
            view.search_k_nearest(point, 3)
        details = excinfo.value.details
        assert victim in details["failed"]
        assert set(details["completed"]) <= set(data_partitions)
        assert victim not in details["completed"]
        # Through the engine the same failure surfaces per query, named.
        result = engine.execute(QuerySpec.k_nearest(triples[0], 3))
        assert not result.ok
        assert "ShardError" in result.error and victim in result.error
        stats = view.statistics()
        assert stats["per_shard"][victim]["failures"] >= 1
    finally:
        engine.close()
        view.close()


def test_restarting_the_shard_restores_exactness(corpus_index, shard_fleet,
                                                 make_transport):
    index, triples, data_partitions = corpus_index
    servers, topology = shard_fleet
    victim = data_partitions[0]
    servers[victim].close()

    # Relaunch the partition on a fresh ephemeral port, as an operator would.
    replacement = SemTreeServer(ShardApp.from_index(index, victim)).serve_background()
    try:
        healed = dict(topology.shards)
        healed[victim] = replacement.url
        view = ShardedIndex(index, make_transport(ShardTopology(healed)))
        oracle = QueryEngine(index, workers=1)
        engine = QueryEngine(view, workers=2)
        specs = mixed_specs(triples, 12, seed=99)
        try:
            expected = oracle.execute_sequential(specs)
            actual = engine.execute_batch(specs)
            for spec, got, want in zip(specs, actual, expected):
                assert got.ok, got.error
                assert_equivalent(got.matches, want.matches,
                                  truncated=spec.kind.value == "knn")
        finally:
            engine.close()
            oracle.close()
            view.close()
    finally:
        replacement.close()


def test_missing_partition_in_topology_fails_construction(corpus_index, shard_fleet,
                                                          make_transport):
    index, _, data_partitions = corpus_index
    _, topology = shard_fleet
    partial = {pid: url for pid, url in topology.shards.items()
               if pid != data_partitions[0]}
    with pytest.raises(ShardError, match="does not cover every data-bearing"):
        ShardedIndex(index, make_transport(ShardTopology(partial)))
