"""CoordinatorApp over HTTP: endpoints, metrics schema, read-only surface."""

from __future__ import annotations

import pytest

from coordinator_corpus import assert_equivalent
from repro.coordinator import CoordinatorApp, ShardedIndex
from repro.errors import ServerError
from repro.server import SemTreeServer
from repro.service.engine import QueryEngine
from repro.service.planner import QuerySpec
from repro.workloads import ServerClient


@pytest.fixture
def coordinator(corpus_index, shard_fleet, make_transport):
    index, triples, _ = corpus_index
    _, topology = shard_fleet
    view = ShardedIndex(index, make_transport(topology))
    app = CoordinatorApp(view, workers=2)
    server = SemTreeServer(app).serve_background()
    client = ServerClient(server.url)
    yield server, client, index, triples
    if not app.closed:
        server.close()


def test_knn_and_range_over_http_match_the_oracle(coordinator):
    server, client, index, triples = coordinator
    oracle = QueryEngine(index, workers=1)
    try:
        for triple in triples[:6]:
            wire = client.knn(triple, 4)
            want = oracle.execute_sequential([QuerySpec.k_nearest(triple, 4)])[0]
            assert_equivalent(wire["matches"], want.matches, truncated=True)
            wire = client.range(triple, 0.2)
            want = oracle.execute_sequential([QuerySpec.range_query(triple, 0.2)])[0]
            assert_equivalent(wire["matches"], want.matches, truncated=False)
    finally:
        oracle.close()


def test_batched_queries_and_cache(coordinator):
    server, client, _, triples = coordinator
    payloads = [ServerClient.knn_payload(triples[0], 3)] * 3
    results = client.knn_batch(payloads)
    assert len(results) == 3
    assert results[0]["cached"] is False
    assert results[1]["cached"] and results[2]["cached"]
    # A repeat of the same query is a result-cache hit: no new fan-out.
    before = server.app.index.statistics()["queries"]
    again = client.knn(triples[0], 3)
    assert again["cached"] is True
    assert server.app.index.statistics()["queries"] == before


def test_insert_does_not_exist_on_a_coordinator(coordinator):
    _, client, _, triples = coordinator
    with pytest.raises(ServerError) as excinfo:
        client.insert(triples[0])
    assert excinfo.value.status == 404


def test_health_and_topology(coordinator):
    server, client, index, _ = coordinator
    health = client.health()
    assert health["role"] == "coordinator"
    assert health["points"] == len(index)
    topology = client.request("GET", "/v1/topology")
    assert set(topology["shards"]) == set(topology["partitions"])
    assert sum(topology["points_per_partition"].values()) == len(index)


def test_metrics_schema(coordinator):
    server, client, _, triples = coordinator
    client.knn(triples[0], 3)
    metrics = client.metrics()
    assert set(metrics) == {"serving", "cache", "shards", "coordinator"}
    shards = metrics["shards"]
    assert shards["queries"] >= 1
    assert shards["fan_out_mean"] >= 1.0
    for stats in shards["per_shard"].values():
        assert {"scans", "failures", "latency_ms"} <= set(stats)
    assert metrics["coordinator"]["requests"]["knn"] >= 1


def test_close_is_graceful_and_idempotent(coordinator):
    server, client, _, triples = coordinator
    assert client.knn(triples[0], 2)["error"] is None
    assert server.close() is None
    assert server.app.closed
    assert server.app.close() is None  # idempotent
    with pytest.raises(ServerError):
        client.knn(triples[0], 2)
