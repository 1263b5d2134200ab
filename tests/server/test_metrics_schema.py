"""The `/v1/metrics` payload schema is stable and uniformly snake_case.

These tests lock down the unified metrics contract documented in
``docs/server.md``: the exact key set of every section, the shared naming
conventions (bare ``qps`` / ``wall_seconds`` in every section that has
them, ``*_ms`` sub-dictionaries always present), and the guarantee that
the ``cache`` section is byte-for-byte what
``QueryEngine.statistics()["cache"]`` reports.
"""

from __future__ import annotations

import json
import re

from server_corpus import INSERT_TRIPLES, QUERY_TRIPLES

SNAKE_CASE = re.compile(r"^[a-z0-9_]+$")

SERVING_KEYS = {
    "queries", "executed", "served_from_cache", "timeouts", "errors",
    "degraded", "overlay_retries", "wall_seconds", "qps", "queries_by_kind",
    "partition_loads", "cost", "latency_ms", "queue_wait_ms", "workers",
}
LATENCY_KEYS = {"mean", "p50", "p90", "p99", "max"}
CACHE_KEYS = {
    "hits", "misses", "lookups", "hit_rate", "evictions", "invalidations",
    "size",
}
INGEST_KEYS = {
    "inserts", "replayed", "wall_seconds", "qps", "compactions",
    "points_compacted", "compaction_ms", "compaction_threshold",
    "delta_points", "wal_records", "applied_seq", "last_seq",
}
COMPACTION_KEYS = {"mean", "max", "last"}
INDEX_KEYS = {"generation", "points", "tree_points", "kernel", "dimensions"}
SERVER_KEYS = {"uptime_seconds", "requests", "admission"}
ADMISSION_KEYS = {"enabled", "max_queue_depth", "admitted", "shed",
                  "shed_total"}


def walk_keys(payload, path=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield f"{path}.{key}" if path else key, key
            yield from walk_keys(value, f"{path}.{key}" if path else key)
    elif isinstance(payload, list):
        for entry in payload:
            yield from walk_keys(entry, path)


class TestMetricsSchema:
    def test_sections_and_keys_before_any_traffic(self, make_server):
        _, client = make_server()
        metrics = client.metrics()
        assert set(metrics) == {"serving", "cache", "ingest", "index", "server"}
        assert set(metrics["serving"]) == SERVING_KEYS
        assert set(metrics["serving"]["latency_ms"]) == LATENCY_KEYS
        assert set(metrics["serving"]["queue_wait_ms"]) == LATENCY_KEYS
        assert set(metrics["cache"]) == CACHE_KEYS
        assert set(metrics["ingest"]) == INGEST_KEYS
        assert set(metrics["ingest"]["compaction_ms"]) == COMPACTION_KEYS
        assert set(metrics["index"]) == INDEX_KEYS
        assert set(metrics["server"]) == SERVER_KEYS
        assert set(metrics["server"]["admission"]) == ADMISSION_KEYS

    def test_schema_is_identical_under_traffic(self, make_server):
        _, client = make_server(compaction_threshold=4)
        client.insert_many(INSERT_TRIPLES)      # crosses the compaction threshold
        for triple in QUERY_TRIPLES:
            client.knn(triple, 3)
            client.knn(triple, 3)               # cache hit
            client.range(triple, 0.3)
        metrics = client.metrics()
        assert set(metrics["serving"]) == SERVING_KEYS
        assert set(metrics["cache"]) == CACHE_KEYS
        assert set(metrics["ingest"]) == INGEST_KEYS
        assert set(metrics["ingest"]["compaction_ms"]) == COMPACTION_KEYS
        assert metrics["serving"]["queries"] == 3 * len(QUERY_TRIPLES)
        assert metrics["cache"]["hits"] >= len(QUERY_TRIPLES)
        assert metrics["ingest"]["inserts"] == len(INSERT_TRIPLES)

    def test_every_key_is_snake_case(self, make_server):
        _, client = make_server()
        client.knn(QUERY_TRIPLES[0], 2)
        client.insert(INSERT_TRIPLES[0])
        metrics = client.metrics()
        # values under these prefixes are keyed by *data* (partition ids,
        # endpoint names, query kinds), not schema fields
        exempt = ("serving.partition_loads.", "serving.queries_by_kind.",
                  "server.requests.")
        for path, key in walk_keys(metrics):
            if path.startswith(exempt):
                continue
            assert SNAKE_CASE.match(key), f"non-snake_case metrics key: {path}"

    def test_payload_is_json_serialisable(self, make_server):
        _, client = make_server()
        client.knn(QUERY_TRIPLES[0], 2)
        payload = client.metrics()
        assert json.loads(json.dumps(payload)) == payload

    def test_cache_section_matches_engine_statistics(self, make_server):
        server, client = make_server()
        client.knn(QUERY_TRIPLES[0], 2)
        client.knn(QUERY_TRIPLES[0], 2)
        wire = client.metrics()["cache"]
        direct = server.app.engine.statistics()["cache"]
        assert set(wire) == set(direct)
        for key in ("hits", "misses", "lookups", "size"):
            assert wire[key] == direct[key]


class TestPrometheusExposition:
    """``?format=prometheus`` serves the same numbers in exposition v0.0.4."""

    CORE_FAMILIES = {
        "repro_build_info", "repro_uptime_seconds", "repro_http_requests_total",
        "repro_queries_total", "repro_queries_executed_total",
        "repro_query_latency_seconds", "repro_queue_wait_seconds",
        "repro_cache_hits_total", "repro_cache_misses_total",
        "repro_inserts_total", "repro_index_points", "repro_index_generation",
    }

    def scrape(self, client):
        from repro.obs.prometheus import parse_exposition, validate_exposition

        text = client.metrics_prometheus()
        families = parse_exposition(text)
        assert validate_exposition(families) == [], text
        return families

    def test_round_trip_is_valid_and_has_core_series(self, make_server):
        _, client = make_server()
        client.insert_many(INSERT_TRIPLES)
        for triple in QUERY_TRIPLES:
            client.knn(triple, 3)
            client.knn(triple, 3)
        families = self.scrape(client)
        missing = self.CORE_FAMILIES - set(families)
        assert not missing, f"missing core families: {sorted(missing)}"

    def test_formats_report_the_same_counters(self, make_server):
        """The JSON payload and the exposition read the same locked state."""
        _, client = make_server()
        client.insert_many(INSERT_TRIPLES)
        for triple in QUERY_TRIPLES:
            client.knn(triple, 3)
            client.knn(triple, 3)
            client.range(triple, 0.3)
        payload = client.metrics()
        families = self.scrape(client)

        def series(name, **labels):
            for sample in families[name].samples:
                if all(sample.labels.get(k) == v for k, v in labels.items()):
                    return sample.value
            raise AssertionError(f"no series {name} with {labels}")

        assert series("repro_queries_executed_total") == payload["serving"]["executed"]
        assert series("repro_queries_cached_total") == \
            payload["serving"]["served_from_cache"]
        assert series("repro_cache_hits_total") == payload["cache"]["hits"]
        assert series("repro_cache_misses_total") == payload["cache"]["misses"]
        assert series("repro_inserts_total") == payload["ingest"]["inserts"]
        assert series("repro_index_points") == payload["index"]["points"]
        by_kind = payload["serving"]["queries_by_kind"]
        for kind, count in by_kind.items():
            assert series("repro_queries_total", kind=kind) == count
        # The latency histogram's _count equals the executed-query tally
        # (cache hits never observe a latency sample).
        executed = sum(
            sample.value
            for sample in families["repro_query_latency_seconds"].samples
            if sample.name.endswith("_count")
        )
        assert executed == payload["serving"]["executed"]

    def test_unknown_format_is_a_400(self, make_server):
        import pytest

        from repro.errors import ServerError

        _, client = make_server()
        with pytest.raises(ServerError) as excinfo:
            client.request_text("/v1/metrics?format=openmetrics")
        # The structured error, not the raw JSON body as the message.
        assert (excinfo.value.status, excinfo.value.kind) == (400, "QueryError")
        assert not str(excinfo.value).startswith("{")
