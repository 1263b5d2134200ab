"""The coordinator's shard connection and row tables, over real sockets.

Two things the row-id wire made the transport responsible for:

* **the connection** — keep-alive sockets framed by ``ResponseParser``: a
  reused socket the server had closed while idle is retried once, a
  response cut short is a failure for the failover loop, a 4xx fails the
  scan without touching the breaker, ``close()`` releases every thread's
  socket;
* **the table** — fetched once per replica, refetched when a scan answers
  under another ``rows_id`` (the replica rebooted from a different
  snapshot), and a replica whose table and scans disagree twice fails the
  scan instead of naming a wrong triple.
"""

from __future__ import annotations

import socket
import threading
from collections import deque

import pytest

from coordinator_corpus import build_corpus_index
from repro.coordinator import HttpShardTransport, ShardedIndex, ShardTopology
from repro.core.point import LabeledPoint
from repro.errors import ShardError
from repro.server import SemTreeServer, ShardApp
from repro.server.protocol import WireResponse


def pairs(neighbours):
    """(point, distance) pairs: labels, coordinates and distances, compared exactly."""
    return [(neighbour.point, neighbour.distance) for neighbour in neighbours]


def wire(payload: bytes, status: int = 200) -> bytes:
    response = WireResponse(status=status, body=payload)
    return response.encode_head() + response.body


class ScriptedShard:
    """A raw-socket peer that answers each request with the next scripted step.

    A step is ``(bytes to send, keep the connection open afterwards)``; with
    the script exhausted a connection is closed without a byte.
    """

    def __init__(self, *steps):
        self.steps = deque(steps)
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(5.0)
            while True:
                request = b""
                while b"\r\n\r\n" not in request:
                    try:
                        data = conn.recv(65536)
                    except OSError:
                        return
                    if not data:
                        return
                    request += data
                # Scan bodies are tiny: they arrive with their head.
                self.requests.append(request)
                if not self.steps:
                    return
                payload, keep_open = self.steps.popleft()
                conn.sendall(payload)
                if not keep_open:
                    return

    def close(self) -> None:
        # shutdown, not just close: a thread parked in accept() sleeps through
        # a close, and a leftover thread shows up in later tests' profiles.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()


@pytest.fixture
def scripted():
    peers = []

    def build(*steps) -> ScriptedShard:
        peers.append(ScriptedShard(*steps))
        return peers[-1]

    yield build
    for peer in peers:
        peer.close()


SCAN = wire(b'{"partition_id": "P1", "rows_id": "t", "rows": [[0, 0.5]], '
            b'"nodes_visited": 1, "points_examined": 1, "latency_ms": 0.1}')
TABLE = wire(b'{"partition_id": "P1", "rows_id": "t", "rows": [{"coordinates": [0.0, 0.5], '
             b'"triple": {"subject": {"kind": "concept", "name": "a", "prefix": ""}, '
             b'"predicate": {"kind": "concept", "name": "b", "prefix": ""}, '
             b'"object": {"kind": "concept", "name": "c", "prefix": ""}}}]}')
QUERY = LabeledPoint.of([0.0, 0.0])


def transport_for(url: str, make_transport, **kwargs) -> HttpShardTransport:
    kwargs.setdefault("sleep", lambda seconds: None)
    return make_transport(ShardTopology({"P1": url}), **kwargs)


class TestConnection:
    def test_a_socket_closed_while_idle_is_retried_once(self, corpus_index, shard_fleet,
                                                       make_transport):
        index, triples, data_partitions = corpus_index
        servers, topology = shard_fleet
        pid = data_partitions[0]
        transport = make_transport(topology)
        point = index.embed_query(triples[0])
        first = transport.scan_knn(pid, point, 4)
        servers[pid]._close_idle_connections()
        again = transport.scan_knn(pid, point, 4)
        assert pairs(again.neighbours) == pairs(first.neighbours)
        stats = transport.client_stats()[pid]
        # scan + table fetch, then the scan that hit the dead socket once
        assert stats == {"requests": 3, "connections_opened": 2,
                         "requests_reused": 1, "stale_retries": 1}
        assert transport.failover_stats()[pid]["retries"] == 0

    def test_a_close_after_the_first_byte_is_a_failure_not_a_retry(self, scripted,
                                                                   make_transport):
        peer = scripted((SCAN, True), (TABLE, True),
                        (b"HTTP/1.1 200 OK\r\nContent-Le", False),
                        (SCAN, True))  # would answer a replay: there must be none
        transport = transport_for(peer.url, make_transport)
        assert [n.distance for n in transport.scan_knn("P1", QUERY, 1).neighbours] == [0.5]
        with pytest.raises(ShardError, match="closed mid-response") as excinfo:
            transport.scan_knn("P1", QUERY, 1)
        assert "P1" in excinfo.value.details["failed"]
        assert len(peer.requests) == 3
        assert transport.client_stats()["P1"]["stale_retries"] == 0
        assert transport.failover_stats()["P1"]["exhausted"] == 1
        assert transport.replica_health()["P1"]["detail"][0]["failures"] == 1

    def test_a_close_before_the_first_byte_on_a_fresh_socket_is_not_retried(
            self, scripted, make_transport):
        peer = scripted()
        transport = transport_for(peer.url, make_transport)
        with pytest.raises(ShardError, match="before any response byte"):
            transport.scan_knn("P1", QUERY, 1)
        assert len(peer.requests) == 1
        assert transport.client_stats()["P1"]["stale_retries"] == 0

    @pytest.mark.parametrize("answer, said", [
        (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}", "Content-Length"),
        (b"SSH-2.0-OpenSSH_9.6\r\n", "malformed status line"),
        (wire(b"<html>hello</html>"), "non-JSON response"),
    ])
    def test_what_is_not_a_shard_response_fails_the_replica(self, scripted, make_transport,
                                                            answer, said):
        peer = scripted((answer, False))
        transport = transport_for(peer.url, make_transport)
        with pytest.raises(ShardError, match=said):
            transport.scan_knn("P1", QUERY, 1)
        assert transport.replica_health()["P1"]["detail"][0]["failures"] == 1

    def test_a_4xx_fails_the_scan_without_poisoning_the_breaker(self, corpus_index,
                                                                shard_fleet, make_transport):
        _, _, data_partitions = corpus_index
        _, topology = shard_fleet
        pid = data_partitions[0]
        transport = make_transport(topology, failure_threshold=1)
        with pytest.raises(ShardError, match="rejected.*coordinates"):
            transport.scan_knn(pid, QUERY, 3)  # the index is 3-dimensional
        replica = transport.replica_health()[pid]["detail"][0]
        assert (replica["state"], replica["failures"]) == ("closed", 0)
        assert transport.failover_stats()[pid]["retries"] == 0

    def test_close_releases_every_threads_socket(self, corpus_index, shard_fleet,
                                                 make_transport):
        index, triples, data_partitions = corpus_index
        _, topology = shard_fleet
        pid = data_partitions[0]
        transport = make_transport(topology)
        point = index.embed_query(triples[0])
        # No thread exits before all three have scanned: an exited thread's
        # ident can be reused by the next one started, which would then
        # share its socket.
        scanned = threading.Barrier(3)

        def scan():
            transport.scan_knn(pid, point, 2)
            scanned.wait(timeout=10.0)

        threads = [threading.Thread(target=scan) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        connection = transport._connections[(pid, topology.url_of(pid))]
        sockets = list(connection._sockets.values())
        assert len(sockets) == 3 == transport.client_stats()[pid]["connections_opened"]
        transport.close()  # from a fourth thread, which owns none of them
        assert all(sock.fileno() == -1 for sock in sockets)
        assert not connection._sockets


@pytest.fixture(scope="module")
def other_snapshot():
    """The same corpus partitioned differently: same partition ids, other rows."""
    index, _ = build_corpus_index(partition_capacity=16)
    return index


def serve(index, partition_id: str, port: int = 0, app_class=ShardApp) -> SemTreeServer:
    return SemTreeServer(app_class.from_index(index, partition_id),
                         port=port).serve_background()


def linear_scan(index, partition_id: str, point: LabeledPoint):
    """Every (point, distance) of one partition, nearest first — no tree involved."""
    stored = [p for node in index.tree.partition(partition_id).local_nodes()
              if node.is_leaf for p in node.bucket]
    return sorted(((p, point.distance_to(p)) for p in stored), key=lambda pair: pair[1])


class TestRowTable:
    def test_the_table_is_fetched_once_per_replica(self, corpus_index, shard_fleet,
                                                   make_transport):
        index, triples, data_partitions = corpus_index
        servers, topology = shard_fleet
        transport = make_transport(topology)
        for triple in triples[:6]:
            point = index.embed_query(triple)
            for pid in data_partitions:
                knn = transport.scan_knn(pid, point, 3)
                assert pairs(knn.neighbours) == pairs(
                    index.tree.scan_partition_knn(pid, point, 3).results.neighbours())
                ball = transport.scan_range(pid, point, 0.25)
                assert pairs(ball.neighbours) == pairs(
                    index.tree.scan_partition_range(pid, point, 0.25).sorted_results())
        for pid in data_partitions:
            counts = servers[pid].app.request_counts()
            assert (counts["shard_rows"], counts["shard_knn"], counts["shard_range"]) == (1, 6, 6)

    def test_a_replica_rebooted_from_another_snapshot_is_refetched_and_exact(
            self, corpus_index, other_snapshot, make_transport):
        index, triples, data_partitions = corpus_index
        pid = data_partitions[0]
        point = index.embed_query(triples[0])
        radius = 10.0  # covers the partition: every row of the table is resolved
        before = serve(index, pid)
        port = before.bound_port
        transport = make_transport(ShardTopology({pid: before.url}))
        try:
            assert pairs(transport.scan_range(pid, point, radius).neighbours) == pairs(
                index.tree.scan_partition_range(pid, point, radius).sorted_results())
        finally:
            before.close()
        after = serve(other_snapshot, pid, port=port)
        try:
            assert after.app.rows_id != before.app.rows_id
            # The first scan after the reboot: a dead socket, then a new table.
            ball = transport.scan_range(pid, point, radius)
            expected = linear_scan(other_snapshot, pid, point)
            assert [distance for _, distance in pairs(ball.neighbours)] == \
                   [distance for _, distance in expected]
            assert sorted(pairs(ball.neighbours), key=repr) == sorted(expected, key=repr)
            assert pairs(ball.neighbours) != pairs(
                index.tree.scan_partition_range(pid, point, radius).sorted_results())
            nearest = transport.scan_knn(pid, point, 5)
            assert pairs(nearest.neighbours) == pairs(
                other_snapshot.tree.scan_partition_knn(pid, point, 5).results.neighbours())
            assert after.app.request_counts()["shard_rows"] == 1
            assert transport.failover_stats()[pid]["retries"] == 0
        finally:
            after.close()

    def test_a_replica_whose_table_and_scans_disagree_twice_fails_the_query(
            self, corpus_index):
        index, triples, data_partitions = corpus_index
        liar, honest = data_partitions[0], data_partitions[1:]

        class OtherTable(ShardApp):
            def shard_rows(self, params):
                return {**super().shard_rows(params), "rows_id": "another-table"}

        servers = {pid: serve(index, pid) for pid in honest}
        servers[liar] = serve(index, liar, app_class=OtherTable)
        view = ShardedIndex(index, HttpShardTransport(
            ShardTopology({pid: server.url for pid, server in servers.items()})))
        try:
            point = index.embed_query(triples[0])
            with pytest.raises(ShardError, match="publishes 'another-table'") as excinfo:
                view.search_k_nearest(point, 3)
            assert list(excinfo.value.details["failed"]) == [liar]
            assert excinfo.value.details["completed"] == sorted(honest)
            # The published table never is the scanned one: the next scan
            # asks again, and fails again.
            with pytest.raises(ShardError):
                view.search_range(point, 10.0)
            assert servers[liar].app.request_counts()["shard_rows"] == 2
            # The replica answered both times: alive, so its breaker stays closed.
            assert view.transport.replica_health()[liar]["detail"][0]["state"] == "closed"

            partial = view.search_k_nearest(point, 3, allow_partial=True)
            assert partial.degraded["answered"] == sorted(honest)
            assert list(partial.degraded["missed"]) == [liar]
            assert "another-table" in partial.degraded["missed"][liar]
            survivors = sorted(
                (pair for pid in honest for pair in linear_scan(index, pid, point)),
                key=lambda pair: pair[1])[:3]
            assert [match.distance for match in partial.matches] == \
                   [distance for _, distance in survivors]
        finally:
            view.close()
            for server in servers.values():
                server.close()
