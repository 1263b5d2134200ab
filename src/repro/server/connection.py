"""The client side of ``protocol.py``: one keep-alive connection between tiers.

:class:`KeepAliveConnection` is what a coordinator talks to a shard replica
through: requests written by hand, responses framed by
:class:`~repro.server.protocol.ResponseParser`, one persistent socket per
calling thread.  It exchanges JSON objects and nothing else — no
per-endpoint methods, no ``http.client`` (whose ``email`` header parser
costs more than a partition scan) — and keeps the keep-alive rules of
:class:`repro.workloads.ServerClient`, the full client the tests, tools and
load generators use.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.parse
from collections import Counter
from typing import Any, Dict, Optional

from repro.errors import ServerError
from repro.obs.tracing import current_trace
from repro.server.protocol import ParsedResponse, ResponseParser

__all__ = ["KeepAliveConnection"]

#: How a reused keep-alive socket fails when the server closed it while it
#: sat idle.  Before any response byte, that (or a clean EOF) is retried
#: once on a fresh connection.
_STALE_SOCKET_ERRORS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

_RECV_BYTES = 65536


class KeepAliveConnection:
    """JSON round trips to one server over a persistent socket per thread.

    For *idempotent* requests only: a reused socket found closed before any
    response byte is retried once on a fresh connection, which would replay
    a write whose response was lost.  (The one caller sends partition scans
    and table reads.)  Any other failure — a fresh connection refused, a
    timeout, a response cut short or not one — raises
    :class:`~repro.errors.ServerError` and is the caller's to handle.
    """

    def __init__(self, url: str, *, timeout: float = 30.0):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http":
            raise ServerError(f"unsupported URL scheme in {url!r} (only http is spoken)")
        self.url = url
        self.timeout = timeout
        self._address = (parsed.hostname or "127.0.0.1", parsed.port or 80)
        self._prefix = parsed.path.rstrip("/")
        self._host_line = f" HTTP/1.1\r\nHost: {parsed.netloc}\r\n"
        #: Thread ident → that thread's socket.  Pool threads outlive their
        #: requests, so :meth:`close` is what releases these.
        self._sockets: Dict[int, socket.socket] = {}
        self._lock = threading.Lock()
        self._stats = Counter(requests=0, connections_opened=0,
                              requests_reused=0, stale_retries=0)

    def stats(self) -> Dict[str, int]:
        """Requests, opened connections, keep-alive reuse, stale-socket retries."""
        with self._lock:
            return dict(self._stats)

    def close(self) -> None:
        """Close every thread's socket; one with a request in flight sees it fail."""
        with self._lock:
            sockets, self._sockets = list(self._sockets.values()), {}
        for sock in sockets:
            sock.close()

    def _drop(self, ident: int) -> None:
        with self._lock:
            sock = self._sockets.pop(ident, None)
        if sock is not None:
            sock.close()

    def request(self, method: str, path: str, body: bytes = b"") -> Dict[str, Any]:
        """One round trip; a 2xx's JSON object, :class:`ServerError` otherwise."""
        head = f"{method} {self._prefix}{path}{self._host_line}"
        trace = current_trace()
        if trace is not None:
            # The far side's spans and logs land in the trace of this request.
            head += f"X-Trace-Id: {trace.trace_id}\r\n"
        if body:
            # Only with a body: a GET announcing "Content-Length: 0" is read
            # as carrying an unread body and costs the keep-alive connection.
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        response = self._round_trip(head.encode("latin-1") + b"\r\n" + body)
        try:
            payload = json.loads(response.body)
        except ValueError:
            payload = None
        if response.status >= 400:
            error = payload.get("error") if isinstance(payload, dict) else None
            if not isinstance(error, dict):
                error = {}
            raise ServerError(
                error.get("message") or response.body.decode("utf-8", "replace")
                or response.reason, status=response.status, kind=error.get("type"))
        if not isinstance(payload, dict):
            # Whatever answered is not one of these servers (wrong port, a proxy).
            raise ServerError(f"non-JSON response from {self.url}: "
                              f"{response.body[:120]!r}", status=response.status)
        return payload

    def _round_trip(self, message: bytes) -> ParsedResponse:
        ident = threading.get_ident()
        for attempt in (1, 2):
            sock = self._sockets.get(ident)
            reused = sock is not None
            parser = ResponseParser()
            failure: Optional[OSError] = None
            try:
                if sock is None:
                    sock = socket.create_connection(self._address, timeout=self.timeout)
                    with self._lock:
                        self._sockets[ident] = sock
                        self._stats["connections_opened"] += 1
                    # Before the first byte: a small POST otherwise sits in
                    # Nagle's buffer waiting on the peer's delayed ACK (~44 ms).
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(message)
                while parser.state not in ("complete", "error"):
                    data = sock.recv(_RECV_BYTES)
                    if not data:
                        break
                    parser.feed(data)
            except OSError as error:  # refused, reset, timed out, closed under us
                failure = error
            if parser.state == "complete":
                response = parser.response
                assert response is not None
                with self._lock:
                    self._stats["requests"] += 1
                    self._stats["requests_reused"] += reused
                if not response.keep_alive:
                    self._drop(ident)
                return response
            self._drop(ident)
            if (reused and attempt == 1 and not parser.started
                    and (failure is None or isinstance(failure, _STALE_SOCKET_ERRORS))):
                with self._lock:
                    self._stats["stale_retries"] += 1
                continue
            if failure is not None:
                reason = repr(failure)
            elif parser.error is not None:
                reason = parser.error.message
            else:
                reason = ("connection closed mid-response" if parser.started
                          else "connection closed before any response byte")
            raise ServerError(f"transport failure talking to {self.url}: {reason}") from failure
        raise AssertionError("unreachable")  # pragma: no cover
