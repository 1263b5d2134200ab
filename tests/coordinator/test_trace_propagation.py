"""Trace propagation across the scatter-gather fan-out.

One trace id travels client → coordinator → shard servers: the in-process
fleet lets ``caplog`` observe the access logs of every tier in one place,
proving the ``X-Trace-Id`` header actually crossed both HTTP hops.
"""

from __future__ import annotations

import http.client
import json
import logging
import urllib.parse

import pytest

from repro.coordinator import CoordinatorApp, ShardedIndex
from repro.obs.prometheus import parse_exposition, validate_exposition
from repro.server import SemTreeServer
from repro.workloads import ServerClient


@pytest.fixture
def coordinator(corpus_index, shard_fleet, make_transport):
    index, triples, data_partitions = corpus_index
    _, topology = shard_fleet
    view = ShardedIndex(index, make_transport(topology))
    app = CoordinatorApp(view, workers=2)
    server = SemTreeServer(app).serve_background()
    client = ServerClient(server.url)
    yield server, client, triples, data_partitions
    if not app.closed:
        server.close()


def traced_request(url, path, body, trace_id):
    parsed = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                            timeout=30)
    try:
        connection.request(
            "POST", path, body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "X-Trace-Id": trace_id, "X-Debug-Trace": "1"})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), \
            json.loads(response.read())
    finally:
        connection.close()


def walk(node):
    yield node
    for child in node["children"]:
        yield from walk(child)


class TestTracePropagation:
    def test_one_trace_id_in_every_tier_access_log(self, coordinator, caplog):
        server, _, triples, data_partitions = coordinator
        body = ServerClient.knn_payload(triples[0], 5)
        with caplog.at_level(logging.INFO, logger="repro.access"):
            status, headers, _ = traced_request(server.url, "/v1/knn", body,
                                                "fanout-trace-7")
        assert status == 200
        assert headers["X-Trace-Id"] == "fanout-trace-7"
        access = [record for record in caplog.records
                  if record.name == "repro.access"
                  and getattr(record, "trace_id", None) == "fanout-trace-7"]
        paths = [record.path for record in access]
        # one coordinator request plus one scan per data partition
        assert "/v1/knn" in paths
        assert paths.count("/v1/shard/knn") == len(data_partitions)

    def test_debug_trace_shows_the_scatter(self, coordinator):
        server, _, triples, data_partitions = coordinator
        body = ServerClient.knn_payload(triples[1], 6)
        _, _, payload = traced_request(server.url, "/v1/knn", body, "scatter-1")
        (request,) = payload["debug"]["trace"]["spans"]
        nodes = list(walk(request))
        scatters = [node for node in nodes if node["name"] == "scatter"]
        assert scatters, [node["name"] for node in nodes]
        scanned = sorted(node["meta"]["partition"] for node in nodes
                         if node["name"] == "shard_scan")
        assert scanned == sorted(data_partitions)
        assert any(node["name"] == "gather" for node in nodes)

    def test_coordinator_prometheus_round_trip(self, coordinator):
        server, client, triples, data_partitions = coordinator
        client.knn(triples[0], 4)
        families = parse_exposition(client.metrics_prometheus())
        assert validate_exposition(families) == []
        assert {"repro_scatter_queries_total", "repro_shard_scans_total",
                "repro_shard_roundtrip_seconds", "repro_shard_partitions",
                "repro_transport_requests_total",
                "repro_queries_total"} <= set(families)
        scans = {sample.labels["partition"]: sample.value
                 for sample in families["repro_shard_scans_total"].samples}
        assert set(scans) == set(data_partitions)
        # connection reuse counters come straight from the shard clients
        transport_requests = sum(
            sample.value
            for sample in families["repro_transport_requests_total"].samples)
        assert transport_requests >= len(data_partitions)
