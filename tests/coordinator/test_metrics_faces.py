"""The two faces of the metrics — exposition families and JSON counts — per tier.

Two contracts a metrics refactor must not move, checked on server, shard
and coordinator alike:

* the **family inventory**: which families a tier registers, with which
  type, label names, help text and bucket bounds, equals a literal table —
  "same exposition" as an assertion rather than a hand diff;
* **counts are JSON integers**: every event count in the ``/v1/metrics``
  payload is an ``int``.  ``3.0 == 3`` in Python, so no equality assertion
  anywhere notices a count that started coming out of a float-valued
  instrument; clients that print or strictly type the payload do.
"""

from __future__ import annotations

import re

import pytest

from repro.server import SemTreeServer
from repro.workloads import ServerClient

LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
LAG_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)
COST_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
                65536.0, 262144.0, 1048576.0)

DEGRADED_HELP = "Queries answered partially (allow_partial) after shard failures."

#: ``{family: (type, label names, help, bucket bounds)}`` — what the shell
#: and the transport register on every tier.
SHELL_FAMILIES = {
    "repro_build_info": ("gauge", ("role", "version"),
                         "Build and role metadata (constant 1).", None),
    "repro_uptime_seconds": ("gauge", (), "Seconds since the application booted.", None),
    "repro_http_requests_total": ("counter", ("endpoint",),
                                  "HTTP requests received, by endpoint.", None),
    "repro_http_bytes_total": ("counter", ("direction",),
                               "HTTP body bytes moved, by direction.", None),
    "repro_open_connections": ("gauge", (),
                               "Live HTTP connections held by the transport.", None),
    "repro_loop_lag_seconds": (
        "histogram", (),
        "Delay between a response finishing and the event loop writing it "
        "(completion-queue wait).", LAG_BUCKETS),
    "repro_wire_cache_hits_total": (
        "counter", (), "Responses served from the transport's wire cache.", None),
    "repro_wire_cache_misses_total": (
        "counter", (), "Cacheable requests the wire cache could not serve.", None),
}

#: What the two engine-backed tiers add: serving, result cache, admission.
ENGINE_FAMILIES = {
    "repro_queries_total": ("counter", ("kind",), "Queries served, by query kind.", None),
    "repro_queries_executed_total": (
        "counter", (), "Queries that ran a tree search (cache misses).", None),
    "repro_queries_cached_total": (
        "counter", (), "Queries served from the result cache.", None),
    "repro_query_timeouts_total": (
        "counter", (), "Queries that missed their deadline.", None),
    "repro_query_errors_total": ("counter", (), "Queries that failed with an error.", None),
    "repro_partition_visits_total": (
        "counter", ("partition",), "Tree-search visits, by partition.", None),
    "repro_query_cost_total": (
        "counter", ("counter",),
        "Per-query work counters summed over executed searches, by cost counter.", None),
    "repro_overlay_retries_total": (
        "counter", (), "Overlay rechecks forced by a compaction racing a read.", None),
    "repro_queries_degraded_total": ("counter", (), DEGRADED_HELP, None),
    "repro_query_latency_seconds": (
        "histogram", ("kind",), "Latency of executed (non-cached) queries, by kind.",
        LATENCY_BUCKETS),
    "repro_queue_wait_seconds": (
        "histogram", (), "Time an executed query waited for a search slot.",
        LATENCY_BUCKETS),
    "repro_query_distance_computations": (
        "histogram", ("kind",), "Exact distance computations per executed query, by kind.",
        COST_BUCKETS),
    "repro_requests_admitted_total": (
        "counter", (), "Queries accepted past admission control.", None),
    "repro_requests_shed_total": (
        "counter", ("reason",), "Queries rejected by admission control, by reason.", None),
    "repro_cache_hits_total": ("counter", (), "Result cache hits.", None),
    "repro_cache_misses_total": ("counter", (), "Result cache misses.", None),
    "repro_cache_evictions_total": ("counter", (), "Result cache LRU evictions.", None),
    "repro_cache_invalidations_total": (
        "counter", (), "Result cache generation invalidations.", None),
    "repro_cache_size": ("gauge", (), "Entries currently resident in the result cache.", None),
    "repro_engine_workers": (
        "gauge", (), "Most searches the query engine runs at once.", None),
}

FAMILIES = {
    "server": {
        **SHELL_FAMILIES, **ENGINE_FAMILIES,
        "repro_inserts_total": ("counter", (), "Accepted triple inserts.", None),
        "repro_wal_replayed_total": ("counter", (), "WAL records replayed at recovery.", None),
        "repro_compactions_total": ("counter", (), "Delta-into-tree compactions.", None),
        "repro_points_compacted_total": (
            "counter", (), "Points folded into the tree by compactions.", None),
        "repro_compaction_seconds": (
            "histogram", (), "Duration of one compaction.", LATENCY_BUCKETS),
        "repro_index_points": (
            "gauge", (), "Points currently queryable (tree + delta).", None),
        "repro_index_delta_points": ("gauge", (), "Points in the live delta segment.", None),
        "repro_index_generation": (
            "gauge", (), "Index epoch (bumped by every mutation).", None),
    },
    "shard": {
        **SHELL_FAMILIES,
        "repro_shard_points": (
            "gauge", (), "Points in this shard's partition subtree.", None),
        "repro_shard_nodes_visited_total": (
            "counter", (), "Tree nodes visited by partition scans.", None),
        "repro_shard_points_examined_total": (
            "counter", (), "Points examined by partition scans.", None),
        "repro_shard_scan_seconds": (
            "histogram", ("kind",), "Duration of one partition scan, by kind.",
            LATENCY_BUCKETS),
        "repro_query_cost_total": (
            "counter", ("counter",),
            "Search cost counters accumulated by partition scans.", None),
    },
    "coordinator": {
        **SHELL_FAMILIES, **ENGINE_FAMILIES,
        "repro_shard_partitions": (
            "gauge", (), "Data-bearing partitions behind the coordinator.", None),
        "repro_scatter_queries_total": (
            "counter", (), "Queries scattered across the shard fleet.", None),
        "repro_shard_scans_total": (
            "counter", ("partition",), "Partition scans issued, by partition.", None),
        "repro_shard_scan_failures_total": (
            "counter", ("partition",), "Failed partition scans, by partition.", None),
        "repro_degraded_queries_total": ("counter", (), DEGRADED_HELP, None),
        "repro_shard_roundtrip_seconds": (
            "histogram", ("partition",),
            "Coordinator-observed shard scan round trip, by partition.", LATENCY_BUCKETS),
        "repro_transport_requests_total": (
            "counter", ("partition",),
            "Shard HTTP requests issued by the coordinator, by partition.", None),
        "repro_transport_connections_opened_total": (
            "counter", ("partition",),
            "TCP connections the shard transport opened, by partition.", None),
        "repro_transport_requests_reused_total": (
            "counter", ("partition",),
            "Shard requests served over a reused keep-alive socket.", None),
        "repro_transport_stale_retries_total": (
            "counter", ("partition",),
            "Shard requests retried once after a stale keep-alive socket.", None),
        "repro_shard_retries_total": (
            "counter", ("partition",),
            "Shard scan attempts retried after a replica failure, by partition.", None),
        "repro_shard_failovers_total": (
            "counter", ("partition",),
            "Scan retries that moved to a different replica, by partition.", None),
        "repro_shard_circuit_opens_total": (
            "counter", ("partition",), "Replica circuit-breaker trips, by partition.", None),
        "repro_shard_circuit_shed_total": (
            "counter", ("partition",),
            "Scan attempts skipped because a replica circuit was open.", None),
    },
}

_SERVING_COUNTS = (
    "serving.queries", "serving.executed", "serving.served_from_cache",
    "serving.timeouts", "serving.errors", "serving.degraded",
    "serving.overlay_retries", "serving.queries_by_kind.*",
    "serving.partition_loads.*", "serving.cost.*",
)

#: Paths (``*`` = one data-keyed level) of every event count in a tier's
#: JSON payload.  Each must match at least one value, so the table cannot rot.
COUNT_PATHS = {
    "server": _SERVING_COUNTS + (
        "ingest.inserts", "ingest.replayed", "ingest.compactions",
        "ingest.points_compacted", "server.requests.*",
        "server.admission.admitted", "server.admission.shed.*",
        "server.admission.shed_total",
    ),
    "shard": (
        "shard.scans", "shard.nodes_visited", "shard.points_examined",
        "shard.cost.*", "shard.requests.*",
    ),
    "coordinator": _SERVING_COUNTS + (
        "coordinator.requests.*", "coordinator.admission.admitted",
        "coordinator.admission.shed.*", "coordinator.admission.shed_total",
        "shards.queries", "shards.scans", "shards.degraded_queries",
        "shards.per_shard.*.scans", "shards.per_shard.*.failures",
        "shards.failover.*.*",
    ),
}


def _leaves(payload, path=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, payload


def _drive(role: str, app, client: ServerClient, index, triples) -> None:
    """Enough traffic that every data-keyed count dictionary has entries."""
    if role == "shard":
        coordinates = list(index.embed_query(triples[0]).coordinates)
        client.request("POST", "/v1/shard/knn", {"coordinates": coordinates, "k": 3})
        client.request("POST", "/v1/shard/range",
                       {"coordinates": coordinates, "radius": 0.2})
        return
    if role == "server":
        client.insert(triples[0])
    for triple in triples[:3]:
        client.knn(triple, 3)
        client.knn(triple, 3)               # result-cache hit
        client.range(triple, 0.2)
    # One shed, counted where the transport counts it (admission is off).
    app.admission.shed_transport_overflow(pending=1)


@pytest.mark.parametrize("role", sorted(FAMILIES))
def test_family_inventory(make_tier, role):
    app = make_tier(role)
    with SemTreeServer(app).serve_background():
        registered = {
            family.name: (family.kind, family.labelnames, family.help_text, family.buckets)
            for family in app.registry.collect()
        }
    assert registered == FAMILIES[role]


@pytest.mark.parametrize("role", sorted(COUNT_PATHS))
def test_counts_are_json_integers(make_tier, corpus_index, role):
    index, triples, _ = corpus_index
    app = make_tier(role)
    with SemTreeServer(app).serve_background() as server, \
            ServerClient(server.url) as client:
        _drive(role, app, client, index, triples)
        leaves = dict(_leaves(client.metrics()))
    for pattern in COUNT_PATHS[role]:
        matcher = re.compile(re.escape(pattern).replace(r"\*", r"[^.]+") + "$")
        matched = {path: value for path, value in leaves.items() if matcher.match(path)}
        assert matched, f"{role}: no value at {pattern}"
        for path, value in matched.items():
            assert type(value) is int, f"{role}: {path} = {value!r} is not a JSON integer"
