"""Where a scatter's scans run: all but the last on the pool, the last on the caller.

The calling thread would only wait for the pool otherwise, so it scans one
partition itself — a one-partition range never enters the pool — and the
gather stays in partition order whichever scan finishes first.
"""

from __future__ import annotations

import threading
import time

import pytest

from coordinator_corpus import assert_equivalent, build_corpus_index
from repro.cluster import SimulatedClusterTransport
from repro.coordinator import ShardedIndex
from repro.errors import ShardError


class RecordingTransport:
    """The simulated transport, noting which thread ran each scan and
    holding every pool-side scan back so the caller's finishes first."""

    def __init__(self, tree, pool_delay: float = 0.0):
        self._inner = SimulatedClusterTransport(tree)
        self._pool_delay = pool_delay
        self.threads = {}
        self.finished = []
        self.fail = set()

    def partition_ids(self):
        return self._inner.partition_ids()

    def _ran(self, partition_id: str) -> None:
        self.threads[partition_id] = threading.current_thread().name
        if self._pool_delay and self.threads[partition_id].startswith("semtree-scatter"):
            time.sleep(self._pool_delay)
        self.finished.append(partition_id)
        if partition_id in self.fail:
            raise ShardError(f"{partition_id} is down", failed={partition_id: "down"})

    def scan_knn(self, partition_id, query, k):
        self._ran(partition_id)
        return self._inner.scan_knn(partition_id, query, k)

    def scan_range(self, partition_id, query, radius):
        self._ran(partition_id)
        return self._inner.scan_range(partition_id, query, radius)

    def close(self):
        self._inner.close()


@pytest.fixture(scope="module")
def four_partitions():
    index, triples = build_corpus_index(max_partitions=5)
    data = [p.partition_id for p in index.tree.partitions if p.point_count > 0]
    assert len(data) == 4
    return index, triples, data


@pytest.fixture
def view(four_partitions):
    index, _, _ = four_partitions
    transport = RecordingTransport(index.tree, pool_delay=0.05)
    with ShardedIndex(index, transport) as sharded:
        submitted = []
        submit = sharded._executor.submit
        sharded._executor.submit = lambda *call: submitted.append(call) or submit(*call)
        yield sharded, transport, submitted


def test_a_one_target_scatter_runs_on_the_calling_thread(four_partitions, view):
    index, triples, _ = four_partitions
    sharded, transport, submitted = view
    points = [index.embed_query(triple) for triple in triples]
    point = next(p for p in points if len(sharded._range_targets(p, 0.0)) == 1)
    outcome = sharded.search_range(point, 0.0)
    (target,) = outcome.visited_partitions
    assert transport.threads == {target: threading.current_thread().name}
    assert submitted == []
    assert_equivalent([index.to_match(n) for n in index.tree.range_query(point, 0.0)],
                      outcome.matches, truncated=False)


def test_a_four_target_scatter_gathers_in_partition_order(four_partitions, view):
    index, triples, data = four_partitions
    sharded, transport, submitted = view
    point = index.embed_query(triples[0])
    outcome = sharded.search_k_nearest(point, 5)
    # three scans handed to the pool, the last target kept by the caller...
    assert len(submitted) == 3
    assert transport.threads[data[-1]] == threading.current_thread().name
    assert all(transport.threads[pid].startswith("semtree-scatter") for pid in data[:-1])
    # ...whose scan finished first, and the gather is in partition order anyway
    assert transport.finished[0] == data[-1]
    assert outcome.visited_partitions == tuple(data)
    assert_equivalent(outcome.matches,
                      [index.to_match(n) for n in index.tree.k_nearest(point, 5)],
                      truncated=True)


@pytest.mark.parametrize("down", ["caller", "pool"])
def test_a_failed_scan_is_reported_the_same_from_either_side(four_partitions, view, down):
    index, triples, data = four_partitions
    sharded, transport, _ = view
    victim = data[-1] if down == "caller" else data[0]
    transport.fail.add(victim)
    point = index.embed_query(triples[0])
    with pytest.raises(ShardError) as excinfo:
        sharded.search_k_nearest(point, 3)
    assert list(excinfo.value.details["failed"]) == [victim]
    assert excinfo.value.details["completed"] == sorted(set(data) - {victim})
    partial = sharded.search_k_nearest(point, 3, allow_partial=True)
    assert list(partial.degraded["missed"]) == [victim]
    assert partial.visited_partitions == tuple(pid for pid in data if pid != victim)
