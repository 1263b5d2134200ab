"""Acceptance oracle: a real coordinator + shard subprocess fleet.

This is the ISSUE's acceptance criterion verbatim: a coordinator with ≥2
real shard server subprocesses answers a mixed k-NN/range workload
identically to the single-process :class:`DistributedSemTree` oracle, and
killing a shard mid-service yields a structured partial-failure error.

One fleet is booted per module (subprocess start-up dominates the test's
cost); the workload runs over multiple concurrent client threads.
"""

from __future__ import annotations

import random
import threading

import pytest

from coordinator_corpus import assert_equivalent, build_corpus_index
from repro.coordinator import launch_coordinator, launch_shards, shutdown_processes
from repro.errors import ServerError
from repro.ingest import IngestingIndex
from repro.server.bootstrap import vocabulary_hints
from repro.service.engine import QueryEngine
from repro.service.planner import QuerySpec
from repro.workloads import ServerClient


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """Checkpoint a corpus, launch shard subprocesses + a coordinator."""
    tmp_path = tmp_path_factory.mktemp("sharded-cluster")
    index, triples = build_corpus_index()
    actors, parameters = vocabulary_hints(triples)
    live = IngestingIndex(
        index, tmp_path / "wal.jsonl",
        vocabulary_hints={"actors": actors, "parameters": parameters},
    )
    snapshot = tmp_path / "snapshot.json"
    live.checkpoint(snapshot)
    live.close()

    data_partitions = [
        partition.partition_id for partition in index.tree.partitions
        if partition.point_count > 0
    ]
    assert len(data_partitions) >= 2

    fleet = []
    try:
        shards = launch_shards(snapshot, data_partitions)
        fleet.extend(shards)
        coordinator = launch_coordinator(
            snapshot, {shard.partition_id: shard.url for shard in shards}
        )
        fleet.append(coordinator)
        yield coordinator, shards, index, triples
    finally:
        shutdown_processes(fleet)


def test_fleet_is_really_separate_processes(cluster):
    coordinator, shards, _, _ = cluster
    pids = {managed.process.pid for managed in [coordinator, *shards]}
    assert len(pids) == len(shards) + 1
    for managed in [coordinator, *shards]:
        assert managed.alive


def test_mixed_workload_bit_identical_to_oracle(cluster):
    coordinator, _, index, triples = cluster
    oracle = QueryEngine(index, workers=1)
    rng = random.Random(5)
    client = ServerClient(coordinator.url)
    try:
        for _ in range(30):
            triple = triples[rng.randrange(len(triples))]
            if rng.random() < 0.6:
                wire = client.knn(triple, 4)
                want = oracle.execute_sequential([QuerySpec.k_nearest(triple, 4)])[0]
                assert wire["error"] is None
                assert_equivalent(wire["matches"], want.matches, truncated=True)
            else:
                wire = client.range(triple, 0.2)
                want = oracle.execute_sequential([QuerySpec.range_query(triple, 0.2)])[0]
                assert wire["error"] is None
                assert_equivalent(wire["matches"], want.matches, truncated=False)
    finally:
        oracle.close()
        client.close()


def test_concurrent_clients_stay_exact(cluster):
    coordinator, _, index, triples = cluster
    oracle = QueryEngine(index, workers=1)
    specs = [QuerySpec.k_nearest(triple, 3) for triple in triples[:8]]
    expected = {
        id(spec): result.matches
        for spec, result in zip(specs, oracle.execute_sequential(specs))
    }
    failures = []

    def worker():
        client = ServerClient(coordinator.url)
        try:
            for spec in specs:
                wire = client.knn(spec.triple, spec.k)
                assert_equivalent(wire["matches"], expected[id(spec)], truncated=True)
        except Exception as error:  # noqa: BLE001 - reported to the main thread
            failures.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    oracle.close()
    assert not failures, failures


def test_debug_trace_covers_the_fan_out_wall_time(cluster):
    """Acceptance: one traced query across the real subprocess fleet.

    The returned span tree must account for >= 95% of the handled wall
    time, carry the client's trace id end to end, and show one
    coordinator-side scan span per data partition.
    """
    import http.client
    import json
    import urllib.parse

    coordinator, shards, _, triples = cluster
    body = ServerClient.knn_payload(triples[2], 6)
    parsed = urllib.parse.urlsplit(coordinator.url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                            timeout=30)
    try:
        connection.request(
            "POST", "/v1/knn", body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "X-Trace-Id": "fleet-acceptance-1",
                     "X-Debug-Trace": "1"})
        response = connection.getresponse()
        headers = dict(response.getheaders())
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 200
    assert headers["X-Trace-Id"] == "fleet-acceptance-1"
    trace = payload["debug"]["trace"]
    assert trace["trace_id"] == "fleet-acceptance-1"

    def walk(node):
        yield node
        for child in node["children"]:
            yield from walk(child)

    (request,) = trace["spans"]
    nodes = list(walk(request))
    scanned = {node["meta"]["partition"] for node in nodes
               if node["name"] == "shard_scan"}
    assert scanned == {shard.partition_id for shard in shards}

    (handle,) = [node for node in nodes if node["name"] == "handle"]
    intervals = sorted(
        (child["start_ms"], child["start_ms"] + child["duration_ms"])
        for child in handle["children"])
    covered, cursor = 0.0, None
    for start, end in intervals:
        if cursor is None or start > cursor:
            covered += end - start
        elif end > cursor:
            covered += end - cursor
        cursor = end if cursor is None else max(cursor, end)
    assert covered / handle["duration_ms"] >= 0.95, trace


def test_cost_annotations_match_the_sequential_oracle(cluster):
    """Acceptance: cluster-wide cost accounting is exact, not approximate.

    A traced k-NN query across the real subprocess fleet must return
    per-span cost annotations whose cluster-wide distance-computation
    total equals the sequential oracle's count — the sum of in-process
    per-partition scans over the same embedded query.  The k-NN scatter
    scans every data-bearing partition with an independent top-k state,
    which is exactly what the oracle below replays, so the totals must be
    *equal*, not merely close.
    """
    import http.client
    import json
    import urllib.parse

    from repro.core.distributed import scan_subtree_knn
    from repro.core.knn import KSearchState

    coordinator, shards, index, triples = cluster
    # A parameterisation no other test sends: the result must be computed,
    # not served from the coordinator's cache (a cache hit runs no search
    # and therefore carries no cost annotation).
    triple, k = triples[1], 5
    body = ServerClient.knn_payload(triple, k)
    parsed = urllib.parse.urlsplit(coordinator.url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                            timeout=30)
    try:
        connection.request(
            "POST", "/v1/knn", body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "X-Debug-Trace": "1"})
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 200

    def walk(node):
        yield node
        for child in node["children"]:
            yield from walk(child)

    (request,) = payload["debug"]["trace"]["spans"]
    nodes = list(walk(request))

    (execute,) = [node for node in nodes if node["name"] == "execute"]
    total = execute["meta"]["cost"]
    assert total["distance_computations"] > 0

    # The execute-span total is the sum of the per-shard scan annotations.
    scan_costs = {node["meta"]["partition"]: node["meta"]["cost"]
                  for node in nodes if node["name"] == "shard_scan"}
    assert set(scan_costs) == {shard.partition_id for shard in shards}
    for counter, value in total.items():
        assert value == sum(cost[counter] for cost in scan_costs.values())

    # The oracle: replay each partition's scan in-process over the same
    # embedded coordinates and kernel the fleet used.
    point = index.embed_query(triple)
    oracle = 0
    for partition in index.tree.partitions:
        if partition.point_count == 0:
            continue
        state = KSearchState(query=point, k=k)
        scan_subtree_knn(partition.root, state, index.config.scan_kernel)
        oracle += state.cost.distance_computations
    assert total["distance_computations"] == oracle


def test_every_tier_serves_profile_and_history(cluster):
    """/v1/debug/profile answers on coordinator and shards; /v1/history is gone."""
    coordinator, shards, _, triples = cluster
    for managed in [coordinator, *shards]:
        client = ServerClient(managed.url)
        try:
            profile = client.request("GET", "/v1/debug/profile?seconds=0.05")
            assert profile["source"] == "on_demand"
            assert profile["samples"] > 0
            with pytest.raises(ServerError) as excinfo:
                client.request("GET", "/v1/history")
            assert excinfo.value.status == 404
        finally:
            client.close()


def test_killed_shard_surfaces_as_structured_error_and_503_free(cluster):
    """Run LAST in the module: it kills a shard for good.

    The coordinator must stay up and answer with a per-query structured
    error naming the dead partition — not hang, not crash, not return a
    silently partial result.
    """
    coordinator, shards, _, triples = cluster
    victim = shards[0]
    victim.kill()
    client = ServerClient(coordinator.url, timeout=30.0)
    try:
        # An uncached parameterisation: a result cached before the kill is
        # (correctly) still served, so the failure needs a fresh fan-out.
        with pytest.raises(ServerError) as excinfo:
            client.knn(triples[0], 7)
        assert excinfo.value.status == 502
        assert excinfo.value.kind == "ShardError"
        assert victim.partition_id in str(excinfo.value)
        # Batched requests keep per-result errors (one dead shard must not
        # discard a batch), and the coordinator itself stays healthy.
        batch = client.knn_batch([ServerClient.knn_payload(triples[0], 8)])
        assert batch[0]["matches"] == []
        assert "ShardError" in batch[0]["error"]
        assert client.health()["status"] == "ok"
    finally:
        client.close()
