"""The stdlib HTTP client for ``repro.server`` and the tiers built on it.

:class:`ServerClient` is the Python-side counterpart of the wire API in
``docs/server.md``: one method per endpoint, triples passed as
:class:`~repro.rdf.triple.Triple` objects and shipped in the lossless
dictionary form, server-side failures surfaced as
:class:`~repro.errors.ServerError` carrying the HTTP status, the
structured error type the server reported and its ``Retry-After``.  The
tests, tools and benchmark suite speak through it, and so does the
coordinator's shard transport.

The transport is the client side of :mod:`repro.server.protocol`: the
request head is written by hand, the response framed by
:class:`~repro.server.protocol.ResponseParser`, over one persistent socket
per calling thread (the servers speak HTTP/1.1 with Content-Length
framing, so keep-alive is free).  No ``http.client``: its ``email``-based
header parser costs more than a partition scan.  A request that hits a
*stale* keep-alive socket — the server closed an idle connection between
requests — is retried exactly once on a fresh connection, when the failure
arrived before a byte of response on a previously used socket.  Every
request is safe to replay: reads change nothing, and the index is a set
of triples, so an insert whose first attempt did land adds nothing again.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServerError
from repro.io.serialization import term_to_dict, triple_to_dict
from repro.obs.tracing import current_trace
from repro.rdf.triple import Triple, TriplePattern
from repro.server.protocol import ParsedResponse, ResponseParser

__all__ = ["ServerClient"]

#: How a reused keep-alive socket fails when the server closed it idle
#: (the retry rule is :meth:`ServerClient._round_trip`'s).
_STALE_SOCKET_ERRORS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


def _server_error(response: ParsedResponse) -> ServerError:
    """The one status → :class:`ServerError` mapping: the server's
    structured ``{"error": {"type", "message"}}`` when the body carries
    one, the raw body (or the reason phrase) otherwise, and the
    ``Retry-After`` header as seconds (the servers emit integer seconds)."""
    try:
        error = json.loads(response.body).get("error")
    except (ValueError, AttributeError):
        error = None
    if not isinstance(error, dict):
        error = {}
    try:
        retry_after: Optional[float] = float(response.headers.get("Retry-After"))
    except (TypeError, ValueError):
        retry_after = None
    return ServerError(
        error.get("message") or response.body.decode("utf-8", "replace") or response.reason,
        status=response.status, kind=error.get("type"), retry_after=retry_after)


def _query_payload(triple: Triple, bound: Dict[str, Any],
                   pattern: TriplePattern | None, deadline: float | None,
                   allow_partial: bool) -> Dict[str, Any]:
    """One ``/v1/knn`` or ``/v1/range`` query object; ``bound`` is ``k`` or ``radius``."""
    payload: Dict[str, Any] = {"triple": triple_to_dict(triple), **bound}
    if pattern is not None:
        # The lossless dictionary form, like query triples: str(term) is
        # lossy (a literal's datatype is dropped, a concept name holding
        # ':' reparses as prefix:name) and the server-side pattern match
        # is strict equality, so a lossy round trip silently matches the
        # wrong set.
        payload["pattern"] = {
            position: term_to_dict(getattr(pattern, position))
            for position in ("subject", "predicate", "object")
            if getattr(pattern, position) is not None}
    if deadline is not None:
        payload["deadline"] = deadline
    if allow_partial:
        payload["allow_partial"] = True
    return payload


def _insert_entry(triple: Triple, document_id: str | None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"triple": triple_to_dict(triple)}
    if document_id is not None:
        entry["document_id"] = document_id
    return entry


class ServerClient:
    """A small, dependency-free client for one ``repro.server`` instance.

    Thread-compatibility: one client may be shared across threads — each
    calling thread gets its *own* persistent socket, and :meth:`close`
    (or leaving the ``with`` block) releases every thread's socket.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ServerError(f"unsupported URL scheme {parsed.scheme!r} "
                              f"in {base_url!r} (only http is spoken)")
        host = parsed.hostname or "127.0.0.1"
        self._address = (host, parsed.port or 80)
        self._path_prefix = parsed.path.rstrip("/")
        self._host_line = f" HTTP/1.1\r\nHost: {parsed.netloc or host}\r\n"
        #: Thread ident → that thread's socket.  Pool threads outlive their
        #: requests, so :meth:`close` is what releases these.
        self._sockets: Dict[int, socket.socket] = {}
        self._lock = threading.Lock()
        self._stats = Counter(requests=0, connections_opened=0,
                              requests_reused=0, stale_retries=0)

    def stats(self) -> Dict[str, int]:
        """Transport counters: requests, opened connections, keep-alive reuse
        (``requests_reused``) and one-shot stale-socket retries — enough to
        tell whether the 44 ms-floor fix (TCP_NODELAY + reuse) is working."""
        with self._lock:
            return dict(self._stats)

    def close(self) -> None:
        """Close every thread's socket; one with a request in flight sees it
        fail.  The client reconnects transparently on its next request."""
        with self._lock:
            sockets, self._sockets = list(self._sockets.values()), {}
        for sock in sockets:
            sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ----------------------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None, *,
                headers: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        """One HTTP round trip; non-2xx responses raise :class:`ServerError`."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        raw, response = self.request_bytes(method, path, data, headers=headers)
        try:
            return json.loads(raw)
        except ValueError as error:
            # A 2xx with a non-JSON body means whatever answered is not
            # a repro server (wrong port, proxy); keep the one-type
            # contract so wait_ready's retry loop can handle it.
            raise ServerError(
                f"non-JSON response from {self.base_url}: "
                f"{raw[:120]!r}", status=response.status,
            ) from error

    def request_bytes(self, method: str, path: str,
                      data: Optional[bytes] = None, *,
                      headers: Optional[Dict[str, str]] = None,
                      ) -> Tuple[bytes, ParsedResponse]:
        """One round trip over pre-encoded bytes, skipping response decoding.

        The load generator's fast path: encoding a payload once and never
        parsing successful response bodies keeps client-side CPU out of a
        throughput measurement.  Errors still decode — a 4xx/5xx raises the
        same structured :class:`ServerError` as :meth:`request`.
        """
        head = f"{method} {self._path_prefix}{path}{self._host_line}"
        trace = current_trace()
        if trace is not None:
            # Trace propagation: the far side's spans and logs land in the
            # trace of this request.  Untraced, the server mints its own.
            head += f"X-Trace-Id: {trace.trace_id}\r\n"
        if headers:
            head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if data is not None or method == "POST":
            # Only with a body: a GET announcing "Content-Length: 0" is read
            # as carrying an unread body and costs the keep-alive connection.
            data = data or b""
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        response = self._round_trip(head.encode("latin-1") + b"\r\n" + (data or b""))
        if response.status >= 400:
            raise _server_error(response)
        return response.body, response

    def _drop(self, ident: int) -> None:
        with self._lock:
            sock = self._sockets.pop(ident, None)
        if sock is not None:
            sock.close()

    def _round_trip(self, message: bytes) -> ParsedResponse:
        """Send one request over the calling thread's socket; read the response.

        A stale keep-alive socket (reused, and closed before any response
        byte) is retried exactly once on a fresh connection.  A reused-socket
        close proves the server shut the connection, not that it never
        processed the request; the retry is safe because every request is
        (an insert of a triple already present adds nothing).  Any other
        failure — a fresh connection refused, a timeout, a response cut
        short or not one — raises :class:`ServerError`.
        """
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
                    data = sock.recv(65536)
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
            raise ServerError(
                f"transport failure talking to {self.base_url}: {reason}") from failure
        raise AssertionError("unreachable")  # pragma: no cover

    # -- query payload builders ---------------------------------------------------------

    @staticmethod
    def knn_payload(triple: Triple, k: int = 3, *,
                    pattern: TriplePattern | None = None,
                    deadline: float | None = None,
                    allow_partial: bool = False) -> Dict[str, Any]:
        return _query_payload(triple, {"k": k}, pattern, deadline, allow_partial)

    @staticmethod
    def range_payload(triple: Triple, radius: float, *,
                      pattern: TriplePattern | None = None,
                      deadline: float | None = None,
                      allow_partial: bool = False) -> Dict[str, Any]:
        return _query_payload(triple, {"radius": radius}, pattern, deadline, allow_partial)

    # -- endpoints ----------------------------------------------------------------------

    def knn(self, triple: Triple, k: int = 3, *, pattern: TriplePattern | None = None,
            deadline: float | None = None) -> Dict[str, Any]:
        """``POST /v1/knn`` with one query; returns the result object."""
        return self.request("POST", "/v1/knn",
                            self.knn_payload(triple, k, pattern=pattern,
                                             deadline=deadline))

    def knn_batch(self, payloads: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """``POST /v1/knn`` with a batch of query payloads; returns the results."""
        return self.request("POST", "/v1/knn", {"queries": list(payloads)})["results"]

    def range(self, triple: Triple, radius: float, *,
              pattern: TriplePattern | None = None,
              deadline: float | None = None) -> Dict[str, Any]:
        """``POST /v1/range`` with one query; returns the result object."""
        return self.request("POST", "/v1/range",
                            self.range_payload(triple, radius, pattern=pattern,
                                               deadline=deadline))

    def insert(self, triple: Triple, *, document_id: str | None = None) -> Dict[str, Any]:
        """``POST /v1/insert`` with one triple; returns ``{"seq": ..., ...}``."""
        return self.request("POST", "/v1/insert", _insert_entry(triple, document_id))

    def insert_many(self, triples: Sequence[Triple], *,
                    document_id: str | None = None) -> Dict[str, Any]:
        """``POST /v1/insert`` with a batch; returns the acceptance summary."""
        inserts = [_insert_entry(triple, document_id) for triple in triples]
        return self.request("POST", "/v1/insert", {"inserts": inserts})

    def shard_info(self) -> Dict[str, Any]:
        """``GET /v1/shard`` — which partition the shard serves."""
        return self.request("GET", "/v1/shard")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` — the unified metrics payload."""
        return self.request("GET", "/v1/metrics")

    def request_text(self, path: str, *,
                     headers: Optional[Dict[str, str]] = None) -> str:
        """One GET returning the raw body as text (non-JSON endpoints)."""
        raw, _ = self.request_bytes("GET", path, headers=headers)
        return raw.decode("utf-8")

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — the text exposition."""
        return self.request_text("/v1/metrics?format=prometheus")

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz``."""
        return self.request("GET", "/v1/healthz")

    def index_info(self) -> Dict[str, Any]:
        """``GET /v1/index``."""
        return self.request("GET", "/v1/index")

    def wait_ready(self, *, attempts: int = 50, delay: float = 0.1) -> Dict[str, Any]:
        """Poll ``/v1/healthz`` until the server answers (boot synchronisation)."""
        last_error: Optional[ServerError] = None
        for _ in range(attempts):
            try:
                return self.health()
            except ServerError as error:
                last_error = error
                time.sleep(delay)
        raise ServerError(
            f"server at {self.base_url} did not become ready: {last_error}"
        )
