"""Shard server mode: scan endpoints, schemas, snapshot boot, staleness guard."""

from __future__ import annotations

import pytest

from server_corpus import BASE_TRIPLES
from repro.core.point import LabeledPoint
from repro.errors import IndexError_, PartitionError, ServerError
from repro.ingest import IngestingIndex
from repro.io.serialization import triple_from_dict
from repro.server import SemTreeServer, ShardApp, load_shard
from repro.server.__main__ import build_server
from repro.workloads import ServerClient


@pytest.fixture
def checkpoint(make_base, tmp_path):
    """A checkpointed multi-partition index on disk; returns (index, snapshot)."""
    index = make_base()
    live = IngestingIndex(index, tmp_path / "wal.jsonl")
    snapshot = tmp_path / "snapshot.json"
    live.checkpoint(snapshot)
    live.close()
    return index, snapshot


@pytest.fixture
def shard(make_base):
    """An in-process shard server over one partition of a built index."""
    index = make_base()
    partition_id = next(p.partition_id for p in index.tree.partitions
                        if p.point_count > 0)
    server = SemTreeServer(ShardApp.from_index(index, partition_id)).serve_background()
    yield index, partition_id, server, ServerClient(server.url)
    if not server.app.closed:
        server.close()


def scan(client, kind, coordinates, **bound):
    """``POST /v1/shard/<kind>``: one partition scan, as the shard sent it."""
    return client.request("POST", f"/v1/shard/{kind}",
                          {"coordinates": list(coordinates), **bound})


def resolve(client, wire):
    """A scan's ``rows`` through the shard's published table: (point, distance) pairs."""
    table = client.request("GET", "/v1/shard/rows")
    assert table["partition_id"] == wire["partition_id"]
    assert table["rows_id"] == wire["rows_id"]
    points = [LabeledPoint.of(row["coordinates"], label=triple_from_dict(row["triple"]))
              for row in table["rows"]]
    return [(points[row], distance) for row, distance in wire["rows"]]


def local(neighbours):
    return [(n.point, n.distance) for n in neighbours]


class TestScanEndpoints:
    def test_knn_scan_equals_local_partition_scan(self, shard):
        index, partition_id, _, client = shard
        point = index.embed_query(BASE_TRIPLES[0])
        wire = scan(client, "knn", point.coordinates, k=3)
        state = index.tree.scan_partition_knn(partition_id, point, 3)
        assert wire["partition_id"] == partition_id
        # labels, coordinates and distances, exactly
        assert resolve(client, wire) == local(state.results.neighbours())
        assert wire["points_examined"] == state.points_examined

    def test_range_scan_equals_local_partition_scan(self, shard):
        index, partition_id, _, client = shard
        point = index.embed_query(BASE_TRIPLES[1])
        wire = scan(client, "range", point.coordinates, radius=0.3)
        state = index.tree.scan_partition_range(partition_id, point, 0.3)
        assert wire["rows"]
        assert resolve(client, wire) == local(state.sorted_results())

    def test_scans_have_one_shape_and_carry_no_triples(self, shard):
        index, _, _, client = shard
        point = index.embed_query(BASE_TRIPLES[0])
        for wire in (scan(client, "knn", point.coordinates, k=2),
                     scan(client, "range", point.coordinates, radius=0.3)):
            assert set(wire) == {"partition_id", "rows_id", "rows", "nodes_visited",
                                 "points_examined", "latency_ms", "cost"}
            assert all(isinstance(row, int) and isinstance(distance, float)
                       for row, distance in wire["rows"])

    def test_matches_carry_lossless_triples_and_coordinates(self, shard):
        """...through the row table, which numbers every stored point once."""
        index, partition_id, _, client = shard
        table = client.request("GET", "/v1/shard/rows")
        assert set(table) == {"partition_id", "rows_id", "rows"}
        stored = [(p.coordinates, p.label)
                  for node in index.tree.partition(partition_id).local_nodes()
                  if node.is_leaf for p in node.bucket]
        published = [(tuple(row["coordinates"]), triple_from_dict(row["triple"]))
                     for row in table["rows"]]
        assert sorted(published, key=repr) == sorted(stored, key=repr)
        # The id names the content: the same partition renders the same id,
        # in this process or another.
        assert ShardApp.from_index(index, partition_id).rows_id == table["rows_id"]
        assert client.request("GET", "/v1/shard/rows")["rows_id"] == table["rows_id"]

    def test_full_query_api_is_absent(self, shard):
        _, _, _, client = shard
        with pytest.raises(ServerError) as excinfo:
            client.knn(BASE_TRIPLES[0], 3)
        assert excinfo.value.status == 404

    def test_scans_accumulate_cost_counters(self, shard):
        index, partition_id, _, client = shard
        point = index.embed_query(BASE_TRIPLES[0])
        wire = scan(client, "knn", point.coordinates, k=3)
        assert wire["cost"]["distance_computations"] > 0
        metrics = client.metrics()
        cost = metrics["shard"]["cost"]
        assert cost["distance_computations"] >= \
            wire["cost"]["distance_computations"]
        exposition = client.metrics_prometheus()
        assert 'repro_query_cost_total{counter="distance_computations"}' \
            in exposition

    def test_profile_and_history_endpoints(self, shard):
        _, _, server, client = shard
        profile = client.request("GET", "/v1/debug/profile?seconds=0.05")
        assert profile["source"] == "on_demand"
        assert profile["samples"] > 0
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/v1/history")
        assert excinfo.value.status == 404

    def test_health_and_info_and_metrics(self, shard):
        index, partition_id, _, client = shard
        health = client.health()
        assert health["role"] == "shard"
        assert health["partition_id"] == partition_id
        info = client.shard_info()
        assert info["partition_id"] == partition_id
        assert set(info["snapshot_partitions"]) == {
            p.partition_id for p in index.tree.partitions
        }
        point = index.embed_query(BASE_TRIPLES[0])
        scan(client, "knn", point.coordinates, k=2)
        metrics = client.metrics()
        assert set(metrics) == {"shard"}
        assert metrics["shard"]["scans"] >= 1
        assert metrics["shard"]["points_examined"] >= 1


class TestScanSchemas:
    @pytest.mark.parametrize("body, field", [
        ({}, "body"),
        ({"coordinates": []}, "coordinates"),
        ({"coordinates": "nope"}, "coordinates"),
        ({"coordinates": [0.1, "x"]}, "coordinates[1]"),
        ({"coordinates": [0.1, 0.2, 0.3], "k": "three"}, "k"),
        ({"coordinates": [0.1, 0.2, 0.3], "k": 0}, "k"),
        ({"coordinates": [0.1, 0.2, 0.3], "radius": 1.0}, "body"),
    ])
    def test_knn_scan_validation(self, shard, body, field):
        _, _, _, client = shard
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/v1/shard/knn", body)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "SchemaError"
        assert field in str(excinfo.value)

    def test_range_scan_requires_radius(self, shard):
        _, _, _, client = shard
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/v1/shard/range",
                           {"coordinates": [0.1, 0.2, 0.3]})
        assert excinfo.value.status == 400

    def test_dimension_mismatch_is_a_schema_error(self, shard):
        _, _, _, client = shard
        with pytest.raises(ServerError) as excinfo:
            scan(client, "knn", [0.1, 0.2], k=3)  # the index is 3-dimensional
        assert excinfo.value.status == 400
        assert "coordinates" in str(excinfo.value)


class TestSnapshotBoot:
    def test_load_shard_restores_one_partition(self, checkpoint):
        index, snapshot = checkpoint
        for partition in index.tree.partitions:
            boot = load_shard(snapshot, partition.partition_id)
            assert boot.points == partition.point_count
            assert boot.config.dimensions == index.tree.config.dimensions

    def test_load_shard_unknown_partition(self, checkpoint):
        _, snapshot = checkpoint
        with pytest.raises(PartitionError, match="no partition 'P99'"):
            load_shard(snapshot, "P99")

    def test_snapshot_booted_shard_scans_identically(self, checkpoint):
        index, snapshot = checkpoint
        partition_id = next(p.partition_id for p in index.tree.partitions
                            if p.point_count > 0)
        server = SemTreeServer(ShardApp(load_shard(snapshot, partition_id)))
        with server:
            server.serve_background()
            client = ServerClient(server.url)
            point = index.embed_query(BASE_TRIPLES[0])
            wire = scan(client, "knn", point.coordinates, k=4)
            state = index.tree.scan_partition_knn(partition_id, point, 4)
            assert resolve(client, wire) == local(state.results.neighbours())
            # Booted from the snapshot or sharing the built tree: one table.
            assert wire["rows_id"] == ShardApp.from_index(index, partition_id).rows_id

    def test_cli_refuses_a_stale_wal_tail(self, checkpoint, tmp_path):
        index, snapshot = checkpoint
        # Write inserts past the checkpoint: the shard view would be stale.
        live = IngestingIndex.recover(
            snapshot, tmp_path / "wal.jsonl", index.distance
        )
        from server_corpus import INSERT_TRIPLES
        live.insert(INSERT_TRIPLES[0])
        live.close()
        with pytest.raises(IndexError_, match="checkpoint the full server first"):
            build_server(["--snapshot", str(snapshot), "--wal",
                          str(tmp_path / "wal.jsonl"), "--shard", "P0"])

    def test_cli_requires_wal_unless_shard(self, checkpoint):
        _, snapshot = checkpoint
        with pytest.raises(SystemExit):
            build_server(["--snapshot", str(snapshot)])

    def test_cli_shard_profile_flag_runs_a_continuous_profiler(self, checkpoint):
        _, snapshot = checkpoint
        server, _ = build_server(["--snapshot", str(snapshot),
                                  "--shard", "P0", "--profile"])
        try:
            assert server.app.profiler is not None
            assert server.app.profiler.running
        finally:
            server.close()
        assert not server.app.profiler.running  # close() stops sampling
