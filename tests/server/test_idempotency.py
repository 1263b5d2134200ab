"""Every ``POST /v1/insert`` is safe to retry: the index is a set of triples.

A retried insert whose first attempt already landed finds its triple
present and adds no point, so the server needs no key to recognise a
replay and the client may resend any request — inserts included — when a
reused keep-alive socket dies before the first response byte.
"""

from __future__ import annotations

import threading

import pytest

from server_corpus import BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES
from repro.errors import ServerError
from repro.ingest import IngestingIndex
from repro.io.serialization import triple_to_dict
from repro.server import SemTreeServer, ServerApp
from repro.server.bootstrap import recover_index
from repro.workloads import ServerClient


def documents_by_text(result):
    return [(match["text"], match["documents"]) for match in result["matches"]]


class TestServerSideDedup:
    def test_a_retried_insert_answers_with_a_covering_seq(self, make_server):
        server, client = make_server()
        first = client.insert(INSERT_TRIPLES[0])
        retry = client.insert(INSERT_TRIPLES[0])
        assert retry == first  # same fields, and the WAL prefix holds the triple
        assert server.app.index.wal.last_seq == first["seq"] == 1
        assert client.index_info()["points"] == len(BASE_TRIPLES) + 1

    def test_batch_replay_is_deduplicated_too(self, make_server):
        server, client = make_server()
        batch = [INSERT_TRIPLES[0], INSERT_TRIPLES[1], INSERT_TRIPLES[0]]
        first = client.insert_many(batch)
        replay = client.insert_many(batch)
        assert first["accepted"] == replay["accepted"] == 3
        assert replay["last_seq"] == first["last_seq"] == 2
        assert len(server.app.index.wal) == 2
        assert client.index_info()["points"] == len(BASE_TRIPLES) + 2

    def test_failed_insert_is_not_remembered(self, make_server):
        server, client = make_server()
        with pytest.raises(ServerError):
            client.request("POST", "/v1/insert", {"triple": {"not": "a triple"}})
        assert len(server.app.index.wal) == 0
        # Nothing of the failure stays behind: the valid retry applies.
        assert client.insert(INSERT_TRIPLES[0])["seq"] == 1
        assert client.index_info()["points"] == len(BASE_TRIPLES) + 1

    def test_queries_are_unaffected_by_idempotency_headers(self, make_server):
        # A header older clients sent means nothing now; it is ignored.
        _, client = make_server()
        result = client.request(
            "POST", "/v1/knn", ServerClient.knn_payload(QUERY_TRIPLES[0], 3),
            headers={"Idempotency-Key": "irrelevant"})
        assert "matches" in result

    def test_a_provenance_only_insert_refreshes_wire_cached_answers(self, make_server):
        server, client = make_server(server_kwargs={"wire_cache": True})
        query = BASE_TRIPLES[0]
        client.insert(query, document_id="d1")
        client.knn(query, 3)
        cached = client.knn(query, 3)
        assert server.app.metrics()["serving"]["queries"] == 1  # a wire hit
        client.insert(query, document_id="d2")
        served = client.knn(query, 3)
        assert documents_by_text(served)[0] == (str(query), ["d1", "d2"])
        assert documents_by_text(served) != documents_by_text(cached)
        fresh = server.app.index.k_nearest(query, 3)
        assert documents_by_text(served) == \
            [(str(match.triple), list(match.documents)) for match in fresh]
        assert client.index_info()["points"] == len(BASE_TRIPLES)


class TestConcurrentInserts:
    def test_concurrent_identical_inserts_leave_one_point(self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        app = ServerApp(index)
        racers = 8
        start = threading.Barrier(racers)
        responses = []

        def send():
            start.wait(10.0)
            responses.append(app.handle_insert({"triple": triple_to_dict(INSERT_TRIPLES[0])}))

        senders = [threading.Thread(target=send) for _ in range(racers)]
        try:
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(10.0)
        finally:
            app.close()
        assert not any(sender.is_alive() for sender in senders)
        assert {response["seq"] for response in responses} == {1}
        assert len(index.wal) == 1
        assert len(index) == len(BASE_TRIPLES) + 1


class TestRetries:
    def test_a_stale_socket_retries_an_insert(self, make_server):
        server, client = make_server()
        assert client.health()["status"] == "ok"
        server._close_idle_connections()
        assert "seq" in client.insert(INSERT_TRIPLES[0])
        assert client.stats()["stale_retries"] == 1
        assert client.index_info()["points"] == len(BASE_TRIPLES) + 1

    def test_an_insert_retried_across_a_restart_leaves_one_point(self, make_server,
                                                                 tmp_path):
        server, client = make_server()
        snapshot, wal = tmp_path / "snapshot.json", tmp_path / "wal.jsonl"
        server.app.index.checkpoint(snapshot)
        client.insert(INSERT_TRIPLES[0], document_id="d1")
        server.close(checkpoint=False)  # dies before the client saw its answer

        restarted = SemTreeServer(ServerApp(recover_index(snapshot, wal))).serve_background()
        try:
            with ServerClient(restarted.url) as retrying:
                assert retrying.insert(INSERT_TRIPLES[0], document_id="d1")["seq"] == 1
                assert retrying.index_info()["points"] == len(BASE_TRIPLES) + 1
                (match,) = [m for m in retrying.range(INSERT_TRIPLES[0], 0.0)["matches"]
                            if m["text"] == str(INSERT_TRIPLES[0])]
                assert match["documents"] == ["d1"]
        finally:
            restarted.close(checkpoint=False)
        assert len(restarted.app.index.wal) == 1
