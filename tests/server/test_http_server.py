"""End-to-end tests: a real server on an ephemeral port, stdlib client."""

from __future__ import annotations

import json
import urllib.request

import pytest

from server_corpus import BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES, canonical
from repro.errors import ServerError
from repro.rdf import Triple, TriplePattern
from repro.service.planner import QuerySpec
from repro.workloads import ServerClient


class TestQueries:
    def test_knn_equals_direct_engine(self, make_server):
        server, client = make_server()
        for triple in QUERY_TRIPLES:
            wire = client.knn(triple, 3)
            direct = server.app.engine.execute_sequential(
                [QuerySpec.k_nearest(triple, 3)]
            )[0]
            assert canonical(wire["matches"]) == canonical(direct.matches)
            assert wire["error"] is None and not wire["timed_out"]

    def test_range_equals_direct_engine(self, make_server):
        server, client = make_server()
        for triple in QUERY_TRIPLES:
            wire = client.range(triple, 0.4)
            direct = server.app.engine.execute_sequential(
                [QuerySpec.range_query(triple, 0.4)]
            )[0]
            assert canonical(wire["matches"]) == canonical(direct.matches)

    def test_batched_equals_sequential(self, make_server):
        server, client = make_server()
        payloads = [ServerClient.knn_payload(t, 3) for t in QUERY_TRIPLES] * 2
        results = client.knn_batch(payloads)
        assert len(results) == len(payloads)
        sequential = server.app.engine.execute_sequential(
            [QuerySpec.k_nearest(t, 3) for t in QUERY_TRIPLES] * 2
        )
        for wire, direct in zip(results, sequential):
            assert canonical(wire["matches"]) == canonical(direct.matches)
        # the second half of the batch duplicates the first: served as cached
        assert any(result["cached"] for result in results)

    def test_pattern_filter(self, make_server):
        _, client = make_server()
        result = client.knn(QUERY_TRIPLES[1], 5,
                            pattern=TriplePattern.of("OBSW002", None, None))
        assert result["matches"], "the pattern-filtered result should not be empty"
        for match in result["matches"]:
            assert match["text"].startswith("(OBSW002")

    def test_pattern_round_trip_is_lossless(self, make_server):
        # The client ships pattern terms in the dictionary form: a literal's
        # datatype and exotic concept names survive, where str(term) would
        # not (the server-side match is strict equality).
        from repro.rdf.terms import Concept
        _, client = make_server()
        pattern = TriplePattern(subject=Concept("OBSW002"))
        result = client.knn(QUERY_TRIPLES[1], 5, pattern=pattern)
        assert result["matches"]
        for match in result["matches"]:
            assert match["triple"]["subject"]["name"] == "OBSW002"

    def test_generous_deadline_is_not_a_timeout(self, make_server):
        _, client = make_server()
        result = client.knn(QUERY_TRIPLES[0], 3, deadline=30.0)
        assert not result["timed_out"] and result["matches"]

    def test_single_vs_batch_response_shape(self, make_server):
        _, client = make_server()
        single = client.knn(QUERY_TRIPLES[0], 2)
        assert "matches" in single and "results" not in single
        batch = client.request(
            "POST", "/v1/knn",
            {"queries": [ServerClient.knn_payload(QUERY_TRIPLES[0], 2)]},
        )
        assert "results" in batch and len(batch["results"]) == 1


class TestInserts:
    def test_insert_is_immediately_queryable(self, make_server):
        _, client = make_server()
        triple = INSERT_TRIPLES[0]
        response = client.insert(triple, document_id="doc-9")
        assert response["seq"] == 1 and response["delta_points"] == 1
        result = client.knn(triple, 1)
        assert result["matches"][0]["text"] == str(triple)
        assert result["matches"][0]["distance"] == pytest.approx(0.0)
        assert result["matches"][0]["documents"] == ["doc-9"]

    def test_batch_insert(self, make_server):
        server, client = make_server()
        summary = client.insert_many(INSERT_TRIPLES)
        assert summary == {"accepted": len(INSERT_TRIPLES), "first_seq": 1,
                           "last_seq": len(INSERT_TRIPLES)}
        assert len(server.app.index) == len(BASE_TRIPLES) + len(INSERT_TRIPLES)

    def test_inserts_hit_the_wal(self, make_server, tmp_path):
        _, client = make_server()
        client.insert_many(INSERT_TRIPLES[:3])
        records = [json.loads(line) for line in
                   (tmp_path / "wal.jsonl").read_text().splitlines()]
        assert [record["seq"] for record in records] == [1, 2, 3]

    def test_mid_batch_failure_reports_applied_prefix(self, make_server):
        from repro.server.schemas import PartialInsertError, error_body, status_for
        server, _ = make_server()
        app = server.app
        real_insert = app.index.insert
        calls = []

        def failing_insert(triple, *, document_id=None):
            if len(calls) == 2:
                raise OSError("disk full")
            calls.append(triple)
            return real_insert(triple, document_id=document_id)

        app.index.insert = failing_insert
        try:
            with pytest.raises(PartialInsertError) as excinfo:
                app.handle_insert({"inserts": [
                    {"triple": {"subject": str(t.subject), "predicate": str(t.predicate),
                                "object": str(t.object)}}
                    for t in INSERT_TRIPLES[:4]
                ]})
        finally:
            app.index.insert = real_insert
        error = excinfo.value
        assert status_for(error) == 500
        assert error.details == {"accepted": 2, "first_seq": 1, "last_seq": 2}
        assert error_body(error)["error"]["details"]["accepted"] == 2
        # the applied prefix is durable and queryable
        assert len(app.index) == len(BASE_TRIPLES) + 2

    def test_compaction_behind_inserts(self, make_server):
        server, client = make_server(compaction_threshold=4)
        client.insert_many(INSERT_TRIPLES)
        deadline_metrics = client.metrics()
        assert deadline_metrics["ingest"]["inserts"] == len(INSERT_TRIPLES)
        # the batch crossed the threshold, so its request folded it all
        assert deadline_metrics["ingest"]["compactions"] == 1
        assert deadline_metrics["ingest"]["delta_points"] == 0
        assert deadline_metrics["index"]["points"] == \
            len(BASE_TRIPLES) + len(INSERT_TRIPLES)


class TestObservability:
    def test_healthz(self, make_server):
        _, client = make_server()
        health = client.health()
        assert health["status"] == "ok"
        assert health["points"] == len(BASE_TRIPLES)
        assert health["uptime_seconds"] >= 0.0

    def test_index_info(self, make_server):
        _, client = make_server()
        info = client.index_info()
        assert info["points"] == len(BASE_TRIPLES)
        assert info["kernel"] in ("numpy", "scalar")
        assert info["config"]["dimensions"] == 3
        assert info["config"]["bucket_size"] == 4
        assert info["generation"] >= 1

    def test_metrics_track_requests(self, make_server):
        _, client = make_server()
        client.knn(QUERY_TRIPLES[0], 2)
        client.knn(QUERY_TRIPLES[0], 2)
        client.range(QUERY_TRIPLES[0], 0.3)
        metrics = client.metrics()
        assert metrics["serving"]["queries"] == 3
        assert metrics["serving"]["queries_by_kind"] == {"knn": 2, "range": 1}
        assert metrics["cache"]["hits"] >= 1
        assert metrics["server"]["requests"] == {"knn": 2, "range": 1, "metrics": 1}

    def test_wire_cache_hits_count_as_requests(self, make_server):
        _, client = make_server(server_kwargs={"wire_cache": True})
        payload = ServerClient.knn_payload(QUERY_TRIPLES[0], 2)
        first = client.request("POST", "/v1/knn", payload)
        assert client.request("POST", "/v1/knn", payload) == first  # replayed bytes
        metrics = client.metrics()
        assert metrics["server"]["requests"]["knn"] == 2
        assert metrics["serving"]["queries"] == 1  # the hit never reached the engine
        assert 'repro_http_requests_total{endpoint="knn"} 2' in \
            client.metrics_prometheus().splitlines()


class TestTransportErrors:
    def test_unknown_endpoint_404(self, make_server):
        _, client = make_server()
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/v1/unknown")
        assert excinfo.value.status == 404 and excinfo.value.kind == "NotFound"

    def test_wrong_method_405(self, make_server):
        _, client = make_server()
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/v1/knn")
        assert excinfo.value.status == 405 and excinfo.value.kind == "MethodNotAllowed"

    def test_invalid_json_400(self, make_server):
        server, _ = make_server()
        request = urllib.request.Request(
            f"{server.url}/v1/knn", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == "InvalidJSON"

    def test_wrong_content_type_415(self, make_server):
        server, _ = make_server()
        request = urllib.request.Request(
            f"{server.url}/v1/knn", data=b"x=1",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 415

    def test_schema_violation_400(self, make_server):
        _, client = make_server()
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/v1/knn", {"k": 3})
        assert excinfo.value.status == 400 and excinfo.value.kind == "SchemaError"

    def test_missing_content_length_411(self, make_server):
        import http.client
        server, _ = make_server()
        connection = http.client.HTTPConnection("127.0.0.1", server.bound_port,
                                                timeout=10)
        try:
            # Hand-rolled request: a body-less POST with no Content-Length.
            connection.putrequest("POST", "/v1/knn")
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 411
            assert json.loads(response.read())["error"]["type"] == "LengthRequired"
        finally:
            connection.close()

    def test_keep_alive_not_desynced_by_unread_bodies(self, make_server):
        # Error paths that skip reading a request body (415, routing errors)
        # must close the connection; otherwise the unread bytes are parsed
        # as the next request line on the keep-alive socket and every
        # subsequent exchange desyncs.
        import http.client
        server, _ = make_server()
        connection = http.client.HTTPConnection("127.0.0.1", server.bound_port,
                                                timeout=10)
        try:
            for path, content_type, expected in (
                ("/v1/knn", "text/plain", 415),       # wrong media type
                ("/v1/nowhere", "application/json", 404),  # unknown endpoint
            ):
                connection.request("POST", path, body=b'{"k": 1}',
                                   headers={"Content-Type": content_type})
                response = connection.getresponse()
                assert response.status == expected
                assert response.getheader("Connection") == "close"
                response.read()
                # a follow-up on the (transparently reopened) connection
                # must still parse cleanly
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_chunked_transfer_encoding_501(self, make_server):
        import http.client
        server, _ = make_server()
        connection = http.client.HTTPConnection("127.0.0.1", server.bound_port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/v1/knn")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 501
            # the connection must be closed: unread chunked bytes would
            # otherwise desync the next request on this socket
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_unknown_terms_degrade_without_erroring(self, make_server):
        # Concepts outside the vocabularies fall back to a string distance
        # (see TermDistance), so a query about an unseen actor still answers.
        _, client = make_server()
        result = client.knn(Triple.of("GHOST9", "Fun:send_msg", "MsgType:ping"), 2)
        assert result["error"] is None and len(result["matches"]) == 2


class TestLifecycle:
    def test_close_checkpoints_and_refuses(self, make_server, tmp_path):
        server, client = make_server()
        client.insert_many(INSERT_TRIPLES[:2])
        wal_seq = server.close()
        assert wal_seq == 2
        assert (tmp_path / "snapshot.json").exists()
        with pytest.raises(ServerError):
            client.health()  # the socket is gone

    def test_close_is_idempotent(self, make_server):
        server, _ = make_server()
        assert server.close(checkpoint=False) is None
        assert server.app.close() is None

    def test_closed_app_is_503(self, make_server):
        from repro.errors import ServerClosingError
        from repro.server.schemas import status_for
        server, _ = make_server()
        server.app.close(checkpoint=False)
        with pytest.raises(ServerClosingError) as excinfo:
            server.app.handle_knn({"triple": {"subject": "a", "predicate": "b",
                                              "object": "c"}})
        assert status_for(excinfo.value) == 503
