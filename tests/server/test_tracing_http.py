"""End-to-end request tracing over the HTTP front end.

Locks the wire contract from ``docs/observability.md``: every response
echoes ``X-Trace-Id`` (client-supplied or generated), and ``X-Debug-Trace``
opts into a ``debug.trace`` span tree.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

from server_corpus import QUERY_TRIPLES
from repro.workloads import ServerClient


def raw_request(url, method, path, body=None, headers=None):
    """One verbatim round trip exposing status, headers, and payload."""
    parsed = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                            timeout=10)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        connection.request(method, path, body=data,
                           headers={"Content-Type": "application/json",
                                    **(headers or {})})
        response = connection.getresponse()
        payload = json.loads(response.read())
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def span_names(node):
    yield node["name"]
    for child in node["children"]:
        yield from span_names(child)


def covered_fraction(node):
    """Fraction of a span's duration covered by the union of its children."""
    intervals = sorted(
        (child["start_ms"], child["start_ms"] + child["duration_ms"])
        for child in node["children"]
    )
    covered = 0.0
    cursor = None
    for start, end in intervals:
        if cursor is None or start > cursor:
            covered += end - start
            cursor = end
        elif end > cursor:
            covered += end - cursor
            cursor = end
    return covered / node["duration_ms"] if node["duration_ms"] > 0 else 1.0


class TestTraceHeaders:
    def test_client_supplied_trace_id_is_echoed(self, make_server):
        server, _ = make_server()
        status, headers, _ = raw_request(
            server.url, "GET", "/v1/healthz",
            headers={"X-Trace-Id": "my-trace-123"})
        assert status == 200
        assert headers["X-Trace-Id"] == "my-trace-123"

    def test_missing_trace_id_gets_generated(self, make_server):
        server, _ = make_server()
        _, headers, _ = raw_request(server.url, "GET", "/v1/healthz")
        generated = headers["X-Trace-Id"]
        assert len(generated) == 32
        int(generated, 16)

    def test_garbage_trace_id_is_replaced_not_echoed(self, make_server):
        server, _ = make_server()
        _, headers, _ = raw_request(
            server.url, "GET", "/v1/healthz",
            headers={"X-Trace-Id": "bad header\twith control chars"})
        assert "\t" not in headers["X-Trace-Id"]
        assert headers["X-Trace-Id"] != "bad header\twith control chars"

    def test_error_responses_carry_the_trace_id(self, make_server):
        server, _ = make_server()
        status, headers, payload = raw_request(
            server.url, "POST", "/v1/knn", body={"nonsense": True},
            headers={"X-Trace-Id": "err-trace"})
        assert status == 400
        assert headers["X-Trace-Id"] == "err-trace"
        assert payload["error"]["type"]


class TestDebugTrace:
    def test_opt_in_returns_span_tree(self, make_server):
        server, _ = make_server()
        body = ServerClient.knn_payload(QUERY_TRIPLES[0], 3)
        _, _, payload = raw_request(
            server.url, "POST", "/v1/knn", body=body,
            headers={"X-Debug-Trace": "1", "X-Trace-Id": "debug-1"})
        trace = payload["debug"]["trace"]
        assert trace["trace_id"] == "debug-1"
        (request,) = trace["spans"]
        names = set(span_names(request))
        # the per-stage spans of one uncached single-server query
        assert {"request", "read_body", "handle", "parse", "plan",
                "cache_lookup", "queue_wait", "execute"} <= names

    def test_without_header_no_debug_section(self, make_server):
        _, client = make_server()
        payload = client.knn(QUERY_TRIPLES[0], 3)
        assert "debug" not in payload

    def test_cache_hit_trace_has_no_execute_span(self, make_server):
        server, client = make_server()
        client.knn(QUERY_TRIPLES[0], 3)
        body = ServerClient.knn_payload(QUERY_TRIPLES[0], 3)
        _, _, payload = raw_request(server.url, "POST", "/v1/knn", body=body,
                                    headers={"X-Debug-Trace": "1"})
        names = set(span_names(payload["debug"]["trace"]["spans"][0]))
        assert "cache_lookup" in names
        assert "execute" not in names

    def test_handle_span_children_cover_the_handle_time(self, make_server):
        # Summed over many requests, so one request preempted between two
        # spans cannot fail it on a loaded box.
        server, _ = make_server()
        covered = total = 0.0
        for k in range(1, 21):
            body = ServerClient.knn_payload(QUERY_TRIPLES[k % len(QUERY_TRIPLES)], k)
            _, _, payload = raw_request(server.url, "POST", "/v1/knn", body=body,
                                        headers={"X-Debug-Trace": "yes"})
            (request,) = payload["debug"]["trace"]["spans"]
            (handle,) = [child for child in request["children"]
                         if child["name"] == "handle"]
            covered += covered_fraction(handle) * handle["duration_ms"]
            total += handle["duration_ms"]
        assert covered >= 0.95 * total
