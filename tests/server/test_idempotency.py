"""The write-path retry contract: Idempotency-Key dedup, no blind replays.

The transport-level hazard: a retried ``POST /v1/insert`` whose first
attempt died after the server applied it would double-insert.  The fix has
two halves, both pinned here — the client never blindly retries a write
(only reads, or writes carrying an ``Idempotency-Key``), and the server
deduplicates replayed keys by returning the original response.
"""

from __future__ import annotations

import pytest

from server_corpus import INSERT_TRIPLES, QUERY_TRIPLES
from repro.errors import ServerError
from repro.workloads import ServerClient
from repro.server.protocol import RequestParser
from repro.workloads.http_client import _IDEMPOTENT_POST_PATHS


class TestClientRetryPolicy:
    def test_insert_is_not_a_blindly_retryable_path(self):
        assert "/v1/insert" not in _IDEMPOTENT_POST_PATHS
        assert "/v1/knn" in _IDEMPOTENT_POST_PATHS

    def test_insert_marks_idempotent_only_with_a_key(self, make_server,
                                                     monkeypatch):
        _, client = make_server()
        seen = []
        original = ServerClient._round_trip

        def spy(self, message, idempotent):
            parser = RequestParser()
            parser.feed(message)
            request = parser.request
            seen.append((request.target, idempotent,
                         request.headers.get("Idempotency-Key")))
            return original(self, message, idempotent)

        monkeypatch.setattr(ServerClient, "_round_trip", spy)
        client.insert(INSERT_TRIPLES[0])
        client.insert(INSERT_TRIPLES[1], idempotency_key="write-1")
        assert seen == [
            ("/v1/insert", False, None),
            ("/v1/insert", True, "write-1"),
        ]


class TestServerSideDedup:
    def test_replayed_key_returns_the_original_response(self, make_server):
        server, client = make_server()
        first = client.insert(INSERT_TRIPLES[0], idempotency_key="abc")
        assert "deduplicated" not in first
        replay = client.insert(INSERT_TRIPLES[0], idempotency_key="abc")
        assert replay["deduplicated"] is True
        assert replay["seq"] == first["seq"]
        # The replay applied nothing: the WAL grew by exactly one record.
        assert server.app.index.wal.last_seq == first["seq"]

    def test_batch_replay_is_deduplicated_too(self, make_server):
        server, client = make_server()
        first = client.insert_many(INSERT_TRIPLES[:3], idempotency_key="batch")
        replay = client.insert_many(INSERT_TRIPLES[:3], idempotency_key="batch")
        assert replay["deduplicated"] is True
        assert (replay["first_seq"], replay["last_seq"]) == \
               (first["first_seq"], first["last_seq"])
        assert server.app.index.wal.last_seq == first["last_seq"]

    def test_distinct_keys_apply_independently(self, make_server):
        _, client = make_server()
        first = client.insert(INSERT_TRIPLES[0], idempotency_key="k1")
        second = client.insert(INSERT_TRIPLES[1], idempotency_key="k2")
        assert second["seq"] == first["seq"] + 1

    def test_no_key_means_no_dedup(self, make_server):
        _, client = make_server()
        first = client.insert(INSERT_TRIPLES[0])
        again = client.insert(INSERT_TRIPLES[0])
        assert again["seq"] == first["seq"] + 1
        assert "deduplicated" not in again

    def test_keys_are_truncated_to_the_bounded_length(self, make_server):
        from repro.server.context import MAX_VALUE_LENGTH

        _, client = make_server()
        long_key = "x" * (MAX_VALUE_LENGTH + 50)
        first = client.insert(INSERT_TRIPLES[0], idempotency_key=long_key)
        # Any key sharing the first MAX_VALUE_LENGTH chars replays the same
        # entry — the bound is what keeps the replay cache's memory finite.
        replay = client.insert(INSERT_TRIPLES[0],
                               idempotency_key=long_key + "different-tail")
        assert replay["deduplicated"] is True
        assert replay["seq"] == first["seq"]

    def test_failed_insert_is_not_remembered(self, make_server):
        _, client = make_server()
        bad = {"triple": {"not": "a triple"}}
        with pytest.raises(ServerError):
            client.request("POST", "/v1/insert", bad,
                           headers={"Idempotency-Key": "doomed"},
                           idempotent=True)
        # The key was not burned by the failure: a valid retry under the
        # same key applies for real.
        good = client.insert(INSERT_TRIPLES[0], idempotency_key="doomed")
        assert "deduplicated" not in good
        assert "seq" in good

    def test_queries_are_unaffected_by_idempotency_headers(self, make_server):
        _, client = make_server()
        result = client.request(
            "POST", "/v1/knn", ServerClient.knn_payload(QUERY_TRIPLES[0], 3),
            headers={"Idempotency-Key": "irrelevant"})
        assert "matches" in result
