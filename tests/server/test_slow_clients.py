"""Slow-client adversaries: slowloris, stalled readers, buffer bounds.

A correct transport treats a slow peer as that peer's problem: its
connection is strung along inside bounded memory and eventually reaped,
while every other connection keeps being served at full speed.  The event
loop gets this from its idle/request deadlines (one misbehaving peer costs
one selector registration, never a thread); pinned here.
"""

from __future__ import annotations

import json
import socket
import time

from server_corpus import BASE_TRIPLES
from repro.faults import FaultPlan, FaultSpec
from repro.obs.prometheus import parse_exposition
from repro.workloads import ServerClient

KNN_REQUEST_HEAD = b"POST /v1/knn HTTP/1.1\r\nHost: slow\r\n" \
                   b"Content-Type: application/json\r\n"


def _recv_closed_within(sock: socket.socket, seconds: float) -> bool:
    """True if the server closes ``sock`` within ``seconds``."""
    sock.settimeout(seconds)
    try:
        while True:
            if sock.recv(65536) == b"":
                return True
    except socket.timeout:
        return False
    except ConnectionError:
        return True


def _read_full_response(sock: socket.socket, timeout: float = 15.0) -> tuple:
    """(status, body bytes) — blocks until Content-Length bytes arrived."""
    sock.settimeout(timeout)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "closed mid-body"
        body += chunk
    return status, body[:length]


class TestSlowloris:
    def test_reaps_a_stalled_sender(self, make_server):
        """Headers sent, then the body stalls: no bytes for longer than the
        idle timeout → silent close (the pool never sees the request)."""
        server, _ = make_server(server_kwargs={"idle_timeout": 0.3})
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(KNN_REQUEST_HEAD + b"Content-Length: 100\r\n\r\n"
                         + b'{"tri')  # ... and then nothing
            assert _recv_closed_within(sock, 5.0), \
                "the transport kept a stalled sender past its idle timeout"
        with ServerClient(server.url) as client:
            assert client.health()["status"] == "ok"
            assert "knn" not in client.metrics()["server"]["requests"]

    def test_reaps_a_dripping_sender(self, make_server):
        """A drip that always beats the idle timeout still hits the
        whole-request deadline — progress alone must not pin a socket."""
        server, _ = make_server(server_kwargs={"request_timeout": 1.0,
                                               "idle_timeout": 30.0})
        request = b"GET /v1/healthz HTTP/1.1\r\nHost: drip\r\n" + \
                  b"X-Drip: " + b"d" * 64 + b"\r\n\r\n"
        deadline = time.monotonic() + 10.0
        with socket.create_connection(server.server_address, timeout=5) as sock:
            closed = False
            for i in range(len(request)):
                try:
                    sock.sendall(request[i:i + 1])
                except (BrokenPipeError, ConnectionResetError):
                    closed = True
                    break
                time.sleep(0.05)  # steady progress, ~3.2s total > deadline
                if time.monotonic() > deadline:
                    break
            assert closed or _recv_closed_within(sock, 5.0), \
                "the transport let a dripping sender outlive its deadline"
        with ServerClient(server.url) as client:
            assert client.health()["status"] == "ok"

    def test_reaps_an_idle_connection(self, make_server):
        server, _ = make_server(server_kwargs={"idle_timeout": 0.3})
        with socket.create_connection(server.server_address, timeout=5) as sock:
            assert _recv_closed_within(sock, 5.0), \
                "the transport kept an idle connection past idle_timeout"

    def test_victim_requests_are_served_during_the_attack(self, make_server):
        """Four slowloris connections; a well-behaved client sails through."""
        server, _ = make_server(server_kwargs={"request_timeout": 2.0,
                                               "idle_timeout": 2.0})
        attackers = [socket.create_connection(server.server_address, timeout=5)
                     for _ in range(4)]
        try:
            for sock in attackers:
                sock.sendall(b"POST /v1/knn HTTP/1.1\r\nHost: lo")
            with ServerClient(server.url) as client:
                started = time.perf_counter()
                for _ in range(5):
                    client.knn(BASE_TRIPLES[0], 2)
                elapsed = time.perf_counter() - started
            assert elapsed < 1.5, \
                f"victim requests took {elapsed:.2f}s behind slow clients"
        finally:
            for sock in attackers:
                sock.close()


class TestBoundedBuffers:
    def test_oversized_headers_are_rejected_mid_stream(self, make_server):
        """The 431 arrives long before the attacker finishes sending —
        the transport bounds its read buffer instead of hoarding bytes."""
        server, _ = make_server()
        chunk = b"X-Flood: " + b"f" * 4087 + b"\r\n"  # 4 KiB per header line
        sent = 0
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
            status = None
            for _ in range(256):  # up to 1 MiB if the server let it through
                try:
                    sock.sendall(chunk)
                    sent += len(chunk)
                except (BrokenPipeError, ConnectionResetError):
                    break
                sock.settimeout(0.01)
                try:
                    peek = sock.recv(65536)
                except socket.timeout:
                    continue
                except ConnectionError:
                    break
                if peek:
                    status = int(peek.split(None, 2)[1])
                    break
            assert status == 431
            assert sent < 256 * len(chunk), \
                "the server read the whole flood before answering"

    def test_open_connections_gauge_tracks_reaping(self, make_server):
        server, _ = make_server(server_kwargs={"idle_timeout": 0.5})
        with ServerClient(server.url) as client:
            def gauge() -> float:
                families = parse_exposition(client.metrics_prometheus())
                (sample,) = families["repro_open_connections"].samples
                return sample.value

            idle = [socket.create_connection(server.server_address, timeout=5)
                    for _ in range(5)]
            try:
                assert gauge() >= 5
            finally:
                for sock in idle:
                    sock.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if gauge() <= 1:  # only the metrics client's own connection
                    break
                time.sleep(0.05)
            assert gauge() <= 1, "closed connections were never reaped"


class TestStalledReader:
    def test_dripped_response_does_not_block_other_connections(
            self, make_server):
        """One response dripping via a slow_drip fault; a second client's
        requests complete while the first is still being strung along."""
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/knn",
                                    kind="slow_drip", latency=1.2,
                                    max_fires=1)])
        server, _ = make_server(server_kwargs={"fault_plan": plan})
        request = (KNN_REQUEST_HEAD +
                   b"Content-Length: %d\r\n\r\n" % len(_knn_body()) +
                   _knn_body())
        with socket.create_connection(server.server_address,
                                      timeout=15) as stalled:
            stalled.sendall(request)
            started = time.perf_counter()
            # The stalled reader never calls recv while the drip is live;
            # the response trickles into its kernel buffer.
            with ServerClient(server.url) as client:
                for _ in range(5):
                    client.health()
                victim_elapsed = time.perf_counter() - started
            status, body = _read_full_response(stalled)
            drip_elapsed = time.perf_counter() - started
        assert status == 200 and b"matches" in body
        assert drip_elapsed >= 1.0, "the drip fault never paced the response"
        assert victim_elapsed < 1.0, \
            f"other connections waited {victim_elapsed:.2f}s behind the drip"


def _knn_body() -> bytes:
    return json.dumps(ServerClient.knn_payload(BASE_TRIPLES[0], 2)).encode()
