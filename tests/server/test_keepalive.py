"""ServerClient keep-alive: connection reuse, stale-socket retry, shutdown."""

from __future__ import annotations

import threading

import pytest

from server_corpus import INSERT_TRIPLES, QUERY_TRIPLES
from repro.errors import ServerError


def test_requests_reuse_one_connection(make_server):
    _, client = make_server()
    for _ in range(3):
        client.health()
    assert client.stats() == {"requests": 3, "connections_opened": 1,
                              "requests_reused": 2, "stale_retries": 0}
    client.knn(QUERY_TRIPLES[0], 3)
    # Still the same socket: POSTs and GETs share the persistent connection.
    assert client.stats() == {"requests": 4, "connections_opened": 1,
                              "requests_reused": 3, "stale_retries": 0}


def test_connections_are_per_thread(make_server):
    _, client = make_server()
    client.health()
    thread = threading.Thread(target=client.health)
    thread.start()
    thread.join()
    assert client.stats()["connections_opened"] == 2
    # The main thread's socket survived the worker's request.
    client.health()
    assert client.stats()["connections_opened"] == 2
    assert client.stats()["requests_reused"] == 1


def test_close_from_the_main_thread_releases_a_worker_threads_socket(make_server):
    _, client = make_server()
    served, closed = threading.Event(), threading.Event()

    def worker():
        client.health()
        served.set()
        closed.wait(10.0)
        # Its socket is gone: the client transparently reconnects.
        assert client.health()["status"] == "ok"

    thread = threading.Thread(target=worker)
    thread.start()
    assert served.wait(10.0)
    with client:
        pass  # leaving the block closes every thread's socket
    closed.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert client.stats() == {"requests": 2, "connections_opened": 2,
                              "requests_reused": 0, "stale_retries": 0}


def test_stale_keepalive_socket_is_retried_once(make_server):
    """A server-side connection drop between requests must be invisible."""
    server, client = make_server()
    assert client.health()["status"] == "ok"
    # Shut the server side of every idle keep-alive socket, simulating an
    # idle-timeout or a rolling restart closing connections under us.
    server._close_idle_connections()
    # The next request hits the dead socket, retries on a fresh connection
    # and succeeds without surfacing an error.
    assert client.health()["status"] == "ok"
    assert client.stats()["stale_retries"] == 1


def test_fresh_connection_failure_is_not_retried(make_server):
    server, client = make_server()
    server.close(checkpoint=False)
    with pytest.raises(ServerError):
        client.health()
    assert client.stats()["stale_retries"] == 0


def test_keepalive_responses_stay_correct_under_reuse(make_server):
    """A burst of mixed requests down one socket: framing never desyncs."""
    _, client = make_server()
    for round_ in range(5):
        result = client.knn(QUERY_TRIPLES[round_ % len(QUERY_TRIPLES)], 3)
        assert result["error"] is None and len(result["matches"]) == 3
        insert = client.insert(INSERT_TRIPLES[round_])
        assert insert["seq"] >= 1
        assert client.health()["status"] == "ok"
    assert client.stats() == {"requests": 15, "connections_opened": 1,
                              "requests_reused": 14, "stale_retries": 0}
