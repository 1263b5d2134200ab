"""The write-path retry contract: Idempotency-Key dedup, no blind replays.

The transport-level hazard: a retried ``POST /v1/insert`` whose first
attempt died after the server applied it would double-insert.  The fix has
two halves, both pinned here — the client never blindly retries a write
(only reads, or writes carrying an ``Idempotency-Key``), and the server
deduplicates replayed keys by returning the original response.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from server_corpus import INSERT_TRIPLES, QUERY_TRIPLES
from repro.errors import ServerError
from repro.ingest import IngestingIndex
from repro.io.serialization import triple_to_dict
from repro.workloads import ServerClient
from repro.server import ServerApp
from repro.server.context import request_context
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


class TestConcurrentKeys:
    """Two requests with one key in flight at once: the batch applies once."""

    @staticmethod
    def race(make_base, tmp_path, monkeypatch, fail_first=False):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        app = ServerApp(index)
        real_insert = index.insert
        calls = []

        def slow_insert(*args, **kwargs):
            calls.append(None)
            time.sleep(0.2)
            if fail_first and len(calls) == 1:
                raise OSError("disk on fire")
            return real_insert(*args, **kwargs)

        monkeypatch.setattr(index, "insert", slow_insert)
        body = {"triple": triple_to_dict(INSERT_TRIPLES[0])}
        outcomes = []

        def send():
            with request_context(idempotency_key="same"):
                try:
                    outcomes.append(app.handle_insert(body))
                except OSError as error:
                    outcomes.append(error)

        senders = [threading.Thread(target=send) for _ in range(2)]
        try:
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(10.0)
            assert not any(sender.is_alive() for sender in senders)
            return index, app, outcomes
        finally:
            app.close()

    def test_the_second_request_replays_the_first(self, make_base, tmp_path,
                                                  monkeypatch):
        index, app, outcomes = self.race(make_base, tmp_path, monkeypatch)
        assert len(index.wal) == 1
        assert len(outcomes) == 2
        assert outcomes[0]["seq"] == outcomes[1]["seq"]
        assert sorted(outcome.get("deduplicated", False) for outcome in outcomes) == \
            [False, True]
        assert app._claims == {}

    def test_a_failed_first_attempt_leaves_the_key_to_the_waiter(
            self, make_base, tmp_path, monkeypatch):
        index, app, outcomes = self.race(make_base, tmp_path, monkeypatch,
                                         fail_first=True)
        assert isinstance(outcomes[0], OSError)
        assert outcomes[1]["seq"] == 1 and "deduplicated" not in outcomes[1]
        assert len(index.wal) == 1
        assert app._claims == {}

    def test_many_racers_per_key_apply_each_key_once(self, make_base, tmp_path):
        index = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        app = ServerApp(index)
        keys = [f"key-{number}" for number in range(4)]
        outcomes = {key: [] for key in keys}
        start = threading.Barrier(4 * len(keys))

        def send(key, triple):
            start.wait(10.0)
            with request_context(idempotency_key=key):
                outcomes[key].append(app.handle_insert({"triple": triple_to_dict(triple)}))

        senders = [threading.Thread(target=send, args=(key, INSERT_TRIPLES[number]))
                   for number, key in enumerate(keys) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(10.0)
        finally:
            sys.setswitchinterval(interval)
            app.close()
        assert not any(sender.is_alive() for sender in senders)
        assert len(index.wal) == len(keys)
        for key in keys:
            assert len({outcome["seq"] for outcome in outcomes[key]}) == 1
            assert sum("deduplicated" not in outcome for outcome in outcomes[key]) == 1
        assert app._claims == {}
