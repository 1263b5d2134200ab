"""Seeded HTTP-framing fuzzer: the wire behaviour of the transport, pinned.

Every case is raw bytes on a raw socket — no ``http.client`` to paper
over framing mistakes.  The suite pins three properties for each
malformed (or deliberately torn) request:

1. **No hangs, no crashes** — a response (or a clean close) arrives
   within the read timeout, whatever bytes were thrown at the parser.
2. **One verdict** — the same bytes earn the same status however the
   socket happened to chunk them, because every verdict comes from the
   :mod:`repro.server.protocol` framing layer.
3. **The server survives** — after every case the same listener still
   answers a well-formed request.

Chunking is randomised from a fixed seed: each payload is re-sent split
at different byte boundaries, which is exactly the torn-read surface an
event-loop parser gets wrong first.
"""

from __future__ import annotations

import json
import random
import select
import socket
import time
import zlib

import pytest

from server_corpus import BASE_TRIPLES
from repro.server.protocol import MAX_BODY_BYTES, MAX_REQUEST_LINE_BYTES
from repro.workloads import ServerClient

SEED = 0xC0FFEE
READ_TIMEOUT = 10.0

_KNN_BODY = json.dumps(ServerClient.knn_payload(BASE_TRIPLES[0], 2)).encode()


def _post(route: bytes, headers: bytes, body: bytes = b"") -> bytes:
    return (b"POST " + route + b" HTTP/1.1\r\nHost: fuzz\r\n" + headers +
            b"\r\n" + body)


#: (name, payload bytes, the status the server answers).
CASES = [
    ("garbage_line",
     b"\x16\x03\x01 this is not http\r\n\r\n", 400),
    ("missing_version",
     b"GET /v1/healthz\r\n\r\n", 400),
    ("bad_version",
     b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505),
    ("unknown_method",
     b"BREW /v1/knn HTTP/1.1\r\nHost: fuzz\r\n\r\n", 501),
    ("request_line_too_long",
     b"GET /" + b"a" * (MAX_REQUEST_LINE_BYTES + 512) + b" HTTP/1.1\r\n\r\n",
     414),
    ("oversized_headers",
     b"GET /v1/healthz HTTP/1.1\r\n" +
     b"".join(b"X-Pad-%d: %s\r\n" % (i, b"p" * 900) for i in range(80)) +
     b"\r\n", 431),
    ("header_without_colon",
     b"GET /v1/healthz HTTP/1.1\r\nnot-a-header\r\n\r\n", 400),
    ("obsolete_line_folding",
     b"GET /v1/healthz HTTP/1.1\r\nHost: fuzz\r\n folded\r\n\r\n", 400),
    ("bad_content_length",
     _post(b"/v1/knn", b"Content-Type: application/json\r\n"
           b"Content-Length: banana\r\n"), 411),
    ("negative_content_length",
     _post(b"/v1/knn", b"Content-Type: application/json\r\n"
           b"Content-Length: -5\r\n"), 411),
    ("huge_content_length",
     _post(b"/v1/knn", b"Content-Type: application/json\r\n"
           b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1)), 413),
    ("chunked_body",
     _post(b"/v1/knn", b"Content-Type: application/json\r\n"
           b"Transfer-Encoding: chunked\r\n"), 501),
    ("wrong_content_type",
     _post(b"/v1/knn", b"Content-Type: text/plain\r\nContent-Length: 2\r\n"),
     415),
    ("unknown_route",
     _post(b"/v1/nothing-here", b"Content-Type: application/json\r\n"
           b"Content-Length: 2\r\n"), 404),
    ("method_not_allowed",
     b"GET /v1/knn HTTP/1.1\r\nHost: fuzz\r\n\r\n", 405),
    ("bad_json_body",
     _post(b"/v1/knn", b"Content-Type: application/json\r\n"
           b"Content-Length: 5\r\n", b"{nope"), 400),
    ("valid_health",
     b"GET /v1/healthz HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
     200),
    ("valid_knn",
     _post(b"/v1/knn", b"Content-Type: application/json\r\n"
           b"Content-Length: %d\r\n" % len(_KNN_BODY), _KNN_BODY), 200),
]


def _chunk(payload: bytes, rng: random.Random) -> list:
    """Split ``payload`` at seeded boundaries (1..6 pieces)."""
    if len(payload) < 2:
        return [payload]
    pieces = rng.randint(1, 6)
    cuts = sorted(rng.sample(range(1, len(payload)), min(pieces - 1,
                                                         len(payload) - 1)))
    out, start = [], 0
    for cut in cuts + [len(payload)]:
        out.append(payload[start:cut])
        start = cut
    return out


def _read_response(sock: socket.socket) -> tuple:
    """One response off the wire: ``(status, closed)``.

    Reads the head, honours ``Content-Length``, and reports whether the
    server closed the connection afterwards.  Raising ``socket.timeout``
    here is the suite's hang detector.
    """
    sock.settimeout(READ_TIMEOUT)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-head: {data!r}")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        rest += chunk
    # Short probe: a kept-alive connection simply has nothing more to say.
    sock.settimeout(0.05)
    try:
        closed = sock.recv(65536) == b""
    except socket.timeout:
        closed = False
    except ConnectionError:
        closed = True
    return status, closed


def _exchange(address: tuple, payload: bytes, rng: random.Random) -> tuple:
    """Send ``payload`` in seeded chunks; return ``(status, closed)``.

    Sending stops early if the server has already answered (it rejects
    oversized requests long before the last byte lands, and keeping on
    pushing would only race its close).  A reset while the response is in
    flight is retried once on a fresh connection with the same chunking —
    that race is the peer's kernel, not the server's framing.
    """
    sub_seed = rng.random()
    for attempt in (0, 1):
        chunks = _chunk(payload, random.Random(sub_seed))
        try:
            with socket.create_connection(address, timeout=READ_TIMEOUT) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for i, chunk in enumerate(chunks):
                    readable, _, _ = select.select([sock], [], [], 0)
                    if readable:
                        break
                    try:
                        sock.sendall(chunk)
                    except (BrokenPipeError, ConnectionResetError):
                        break
                    if i + 1 < len(chunks):
                        time.sleep(0.002)
                return _read_response(sock)
        except (ConnectionResetError, AssertionError):
            if attempt:
                raise
    raise AssertionError("unreachable")


@pytest.fixture
def server(make_server):
    """One live server, fuzzed."""
    return make_server()[0]


class TestFramingFuzz:
    @pytest.mark.parametrize("name,payload,expected",
                             CASES, ids=[c[0] for c in CASES])
    def test_case_status_and_liveness(self, server, name, payload, expected):
        rng = random.Random(SEED ^ zlib.crc32(name.encode()))
        for _ in range(3):  # three seeded chunkings of the same bytes
            status, _ = _exchange(server.server_address, payload, rng)
            assert status == expected, \
                f"answered {status} for {name}, expected {expected}"
        with ServerClient(server.url) as client:
            assert client.health()["status"] == "ok"

    def test_random_byte_storm_never_hangs(self, server):
        """200 seeded random-byte preambles: every one answers or closes."""
        rng = random.Random(SEED)
        for trial in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 64)))
            payload = blob + b"\r\n\r\n"
            try:
                status, _ = _exchange(server.server_address, payload,
                                      random.Random(trial))
            except AssertionError:
                continue  # a clean close with no response is acceptable here
            assert 200 <= status < 600
        # The listener survived the storm.
        with ServerClient(server.url) as client:
            assert client.health()["status"] == "ok"

    def test_early_close_is_dropped_silently(self, server):
        """A peer vanishing mid-request must not wedge the listener."""
        for partial in (b"", b"GET /v1/he", b"GET /v1/healthz HTTP/1.1\r\nHo",
                        _post(b"/v1/knn",
                              b"Content-Type: application/json\r\n"
                              b"Content-Length: 100\r\n", b'{"tri')):
            with socket.create_connection(server.server_address,
                                          timeout=READ_TIMEOUT) as sock:
                if partial:
                    sock.sendall(partial)
                time.sleep(0.01)
        with ServerClient(server.url) as client:
            assert client.health()["status"] == "ok"

    def test_pipelined_requests_are_rejected(self, server):
        """Two requests in one write: a 400 rejection, or — when the
        server dispatched the first before the second arrived — two
        ordinary 200s.  Never anything in between, and never a hang."""
        request = b"GET /v1/healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n"
        rejected = served = 0
        for _ in range(10):
            with socket.create_connection(server.server_address,
                                          timeout=READ_TIMEOUT) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(request + request)
                status, closed = _read_response(sock)
                if status == 400:
                    assert closed, "a pipelining rejection must close"
                    rejected += 1
                else:
                    assert status == 200
                    status, _ = _read_response(sock)
                    assert status == 200
                    served += 1
        assert rejected + served == 10
        with ServerClient(server.url) as client:
            assert client.health()["status"] == "ok"
