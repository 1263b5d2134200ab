"""Partition transports: simulated-bus and HTTP scans against the oracle.

The exactness foundation of the whole sharded deployment is that the union
of *partition-local* scans covers every stored point exactly once and
merges to the sequential answer.  These tests pin that, for both transport
implementations, against the guided sequential traversal.
"""

from __future__ import annotations

import pytest

from coordinator_corpus import assert_equivalent
from repro.cluster import SimulatedClusterTransport
from repro.core.knn import ResultSet
from repro.errors import ShardError
from repro.coordinator import ShardTopology


QUERY_COUNT = 12


def _queries(index, triples):
    return [index.embed_query(triple) for triple in triples[:QUERY_COUNT]]


def _merge_knn(scans, k):
    results = ResultSet(k)
    for scan in scans:
        for neighbour in scan.neighbours:
            results.offer(neighbour.point, neighbour.distance)
    return results.neighbours()


class TestSimulatedClusterTransport:
    def test_knn_scan_union_equals_sequential(self, corpus_index):
        index, triples, data_partitions = corpus_index
        transport = SimulatedClusterTransport(index.tree)
        for point in _queries(index, triples):
            sequential = index.tree.k_nearest(point, 5)
            scans = [transport.scan_knn(pid, point, 5) for pid in data_partitions]
            merged = _merge_knn(scans, 5)
            assert_equivalent(
                [index.to_match(n) for n in merged],
                [index.to_match(n) for n in sequential],
                truncated=True,
            )

    def test_range_scan_union_equals_sequential(self, corpus_index):
        index, triples, data_partitions = corpus_index
        transport = SimulatedClusterTransport(index.tree)
        for point in _queries(index, triples):
            sequential = index.tree.range_query(point, 0.2)
            gathered = []
            for pid in data_partitions:
                gathered.extend(transport.scan_range(pid, point, 0.2).neighbours)
            gathered.sort(key=lambda neighbour: neighbour.distance)
            assert_equivalent(
                [index.to_match(n) for n in gathered],
                [index.to_match(n) for n in sequential],
                truncated=False,
            )

    def test_scans_are_charged_to_the_simulated_network(self, corpus_index):
        index, triples, data_partitions = corpus_index
        transport = SimulatedClusterTransport(index.tree)
        before = index.tree.cluster.clock.messages
        transport.scan_knn(data_partitions[0], _queries(index, triples)[0], 3)
        # One SCAN_KNN request plus one SCAN_RESULT reply.
        assert index.tree.cluster.clock.messages == before + 2

    def test_two_transports_share_the_front_end_registration(self, corpus_index):
        """Closing one transport must not break another over the same tree."""
        index, triples, data_partitions = corpus_index
        first = SimulatedClusterTransport(index.tree)
        second = SimulatedClusterTransport(index.tree)
        point = index.embed_query(triples[0])
        first.close()
        first.close()  # idempotent: must not decrement twice
        scan = second.scan_knn(data_partitions[0], point, 3)
        assert scan.neighbours
        second.close()

    def test_scan_counters_cover_the_partition(self, corpus_index):
        index, triples, data_partitions = corpus_index
        transport = SimulatedClusterTransport(index.tree)
        scan = transport.scan_range(data_partitions[0], _queries(index, triples)[0], 10.0)
        # An all-covering radius examines every point of the partition.
        partition = index.tree.partition(data_partitions[0])
        assert scan.points_examined == partition.point_count
        assert len(scan.neighbours) == partition.point_count


class TestHttpShardTransport:
    def test_http_scans_equal_simulated_scans(self, corpus_index, shard_fleet,
                                              make_transport):
        index, triples, data_partitions = corpus_index
        _, topology = shard_fleet
        http = make_transport(topology)
        simulated = SimulatedClusterTransport(index.tree)
        point = _queries(index, triples)[0]
        for pid in data_partitions:
            for over_http, in_process in (
                    (http.scan_knn(pid, point, 4), simulated.scan_knn(pid, point, 4)),
                    (http.scan_range(pid, point, 10.0), simulated.scan_range(pid, point, 10.0))):
                assert over_http.neighbours
                assert [n.distance for n in over_http.neighbours] == \
                       [n.distance for n in in_process.neighbours]
                assert [n.point.coordinates for n in over_http.neighbours] == \
                       [n.point.coordinates for n in in_process.neighbours]
                # rows resolved through /v1/shard/rows name the stored triples
                assert [n.point.label for n in over_http.neighbours] == \
                       [n.point.label for n in in_process.neighbours]
                assert over_http.points_examined == in_process.points_examined
                assert over_http.cost.to_dict() == in_process.cost.to_dict()

    def test_unknown_partition_raises_shard_error(self, shard_fleet, make_transport,
                                                  corpus_index):
        index, triples, _ = corpus_index
        _, topology = shard_fleet
        http = make_transport(topology)
        with pytest.raises(ShardError, match="no shard serves partition 'P99'"):
            http.scan_knn("P99", _queries(index, triples)[0], 3)

    def test_down_shard_raises_shard_error(self, corpus_index, shard_fleet,
                                           make_transport):
        index, triples, data_partitions = corpus_index
        servers, topology = shard_fleet
        victim = data_partitions[0]
        servers[victim].close()
        http = make_transport(topology)
        with pytest.raises(ShardError) as excinfo:
            http.scan_knn(victim, _queries(index, triples)[0], 3)
        assert victim in excinfo.value.details["failed"]

    def test_topology_mismatch_is_detected(self, corpus_index, shard_fleet,
                                           make_transport):
        index, triples, data_partitions = corpus_index
        servers, _ = shard_fleet
        first, second = data_partitions[0], data_partitions[1]
        # Swap the URLs: each entry points at a shard serving the *other* partition.
        wrong = ShardTopology({first: servers[second].url, second: servers[first].url})
        http = make_transport(wrong)
        with pytest.raises(ShardError, match="topology mismatch"):
            http.scan_knn(first, _queries(index, triples)[0], 3)
