"""The HTTP/1.1 framing and dispatch layer.

The transport (:class:`~repro.server.http.SemTreeServer`) is a thin byte
mover around this module, which holds the one implementation of:

- **framing** (:class:`RequestParser`): an incremental, non-blocking
  HTTP/1.1 request parser.  Bytes go in via :meth:`RequestParser.feed` in
  whatever chunks the socket produced; a :class:`ParsedRequest` comes out.
  All limits (request-line length, header count/size, body size) and all
  malformed-input verdicts live here, so a framing fuzzer that pins this
  module pins the wire behaviour.  :class:`ResponseParser` is the other
  direction of the same framing (status line, the same header block and
  caps, a ``Content-Length`` body) for the coordinator's shard connection.
- **dispatch** (:class:`Dispatcher`): the full request lifecycle — trace
  activation, fault injection, routing, the pinned
  4xx/5xx error ladder, handler invocation, serialisation, the access-log
  line — producing a :class:`WireResponse` the transport writes out.

The parser deliberately *pauses* once the header block is complete
(``state == "paused"``): whether the body should be read at all is a
dispatch-level decision (a 404 or 415 answers immediately without waiting
for body bytes that may never arrive).  The transport asks
:meth:`Dispatcher.needs_body`; a ``True`` resumes body framing via
:meth:`RequestParser.begin_body`, a ``False`` dispatches right away with
the body unread (and the connection marked to close, so leftover bytes can
never desync the next exchange).
"""

from __future__ import annotations

import json
import socket
import time
import urllib.parse
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.faults import FaultPlan, FaultSpec
from repro.obs import logging as obs_logging
from repro.obs.tracing import Trace, activate, sanitize_trace_id, span
from repro.server.schemas import error_body, status_for

__all__ = [
    "MAX_BODY_BYTES", "MAX_REQUEST_LINE_BYTES", "MAX_HEADER_BYTES",
    "MAX_HEADER_COUNT", "Headers", "ParsedRequest", "RequestParser",
    "ParsedResponse", "ResponseParser", "WireResponse", "Dispatcher",
    "split_route", "query_params",
]

#: Largest request body accepted, in bytes (a 4096-triple insert batch fits
#: comfortably; anything bigger should be split).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest accepted request line (method + target + version), in bytes.
MAX_REQUEST_LINE_BYTES = 64 * 1024

#: Largest accepted header block (every header line together), in bytes.
MAX_HEADER_BYTES = 64 * 1024

#: Most header lines accepted on one request.
MAX_HEADER_COUNT = 128

#: Header values accepted as "yes" for the ``X-Debug-Trace`` opt-in.
_DEBUG_TRACE_VALUES = frozenset({"1", "true", "yes", "on"})

_SERVER_HEADER = f"repro-semtree/{__version__}"

_access_log = obs_logging.get_logger("repro.access")


def split_route(target: str) -> str:
    """The route of a request target: path before ``?``, trailing ``/`` cut."""
    return target.split("?", 1)[0].rstrip("/") or "/"


def query_params(target: str) -> Dict[str, str]:
    """The target's query-string parameters (last value wins)."""
    if "?" not in target:
        return {}
    parsed = urllib.parse.parse_qs(target.split("?", 1)[1],
                                   keep_blank_values=True)
    return {key: values[-1] for key, values in parsed.items()}


class Headers:
    """A case-insensitive view over one request's header lines.

    First value wins on duplicates (mirroring what ``http.client`` and the
    old ``email``-based stdlib handler did for the headers this server
    reads).
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, str] = {}

    def add(self, name: str, value: str) -> None:
        self._values.setdefault(name.lower(), value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._values.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._values

    def __len__(self) -> int:
        return len(self._values)


def _keeps_alive(version: Tuple[int, int], headers: Headers) -> bool:
    """HTTP/1.1 persists unless told ``close``; HTTP/1.0 only when asked to."""
    connection = (headers.get("Connection") or "").strip().lower()
    if version >= (1, 1):
        return connection != "close"
    return connection == "keep-alive"


@dataclass
class ParsedRequest:
    """One fully-framed (or deliberately body-less) HTTP request."""

    method: str
    target: str
    version: Tuple[int, int]
    headers: Headers
    #: The request body; ``None`` when dispatch decided not to read it
    #: (routing/framing error paths answer before the body arrives).
    body: Optional[bytes] = None
    #: Parsed ``Content-Length``: ``None`` when absent, ``-1`` when invalid.
    content_length: Optional[int] = None
    #: True when a ``Transfer-Encoding`` header is present (chunked bodies
    #: are not supported; see the 501 path).
    chunked: bool = False

    @property
    def route(self) -> str:
        return split_route(self.target)

    @property
    def body_indicated(self) -> bool:
        """True when the client declared a body (``Content-Length``/``TE``)."""
        return self.chunked or self.content_length is not None

    @property
    def keep_alive(self) -> bool:
        return _keeps_alive(self.version, self.headers)


@dataclass
class ParsedResponse:
    """One fully-framed HTTP response, as a client of these servers reads it."""

    status: int
    reason: str
    version: Tuple[int, int]
    headers: Headers
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """False when the server announced it closes the connection."""
        return _keeps_alive(self.version, self.headers)


@dataclass
class _FramingError:
    """A connection-fatal parse failure (no message object exists)."""

    status: int
    error_type: str
    message: str


@dataclass
class WireResponse:
    """Everything a transport needs to write one response and move on."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    retry_after: Optional[float] = None
    trace_id: Optional[str] = None
    close: bool = False
    #: Armed by a ``slow_drip`` fault: the transport dribbles the body out
    #: in small paced chunks instead of one write.
    drip: Optional[FaultSpec] = None
    #: Armed by an ``error`` fault: shut the socket without any response
    #: bytes (the client sees exactly what a crashed peer causes).
    reset: bool = False

    def encode_head(self) -> bytes:
        """The status line + headers + blank line, ready for the wire."""
        try:
            phrase = HTTPStatus(self.status).phrase
        except ValueError:
            phrase = ""
        parts = [
            f"HTTP/1.1 {self.status} {phrase}\r\n"
            f"Server: {_SERVER_HEADER}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
        ]
        if self.retry_after is not None:
            # HTTP wants delta-seconds as a non-negative integer; round up
            # so "0.4s" does not become an immediate (pointless) retry.
            parts.append(f"Retry-After: {max(1, int(-(-self.retry_after // 1)))}\r\n")
        if self.trace_id is not None:
            parts.append(f"X-Trace-Id: {self.trace_id}\r\n")
        if self.close:
            parts.append("Connection: close\r\n")
        parts.append("\r\n")
        return "".join(parts).encode("latin-1")

    def drip_chunks(self) -> List[Tuple[float, bytes]]:
        """The body as ``(pause_seconds, chunk)`` pairs for a drip fault.

        Each pause precedes its chunk so the fault's full latency lands
        before the last byte: the client's read blocks for at least
        ``drip.latency`` before the body completes.
        """
        if self.drip is None or not self.body:
            return [(0.0, self.body)]
        chunks = max(2, min(8, len(self.body)))
        pause = self.drip.latency / chunks if self.drip.latency else 0.0
        size = -(-len(self.body) // chunks)
        return [(pause, self.body[start:start + size])
                for start in range(0, len(self.body), size)]


class _MessageParser:
    """The framing both directions share: one start line, a bounded header
    block, a ``Content-Length`` body — fed in whatever chunks the socket
    produced.  Subclasses parse the start line and decide what follows the
    header block.
    """

    #: The verdict on a start line longer than :data:`MAX_REQUEST_LINE_BYTES`.
    _LINE_TOO_LONG: Tuple[int, str, str]

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._body = bytearray()
        self._body_remaining = 0
        self._header_bytes = 0
        #: The message being framed (set once its start line parsed).
        self._message: Any = None
        self.state = "line"
        self.started = False
        self.error: Optional[_FramingError] = None

    @property
    def remainder(self) -> int:
        """Bytes received beyond the current message (pipelining)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        if self.state in ("complete", "error", "paused"):
            self._buffer.extend(data)
            return
        self._buffer.extend(data)
        self._advance()

    def _fail(self, status: int, error_type: str, message: str) -> None:
        self.state = "error"
        self.error = _FramingError(status, error_type, message)
        self._buffer.clear()

    def _advance(self) -> None:
        while True:
            if self.state == "line":
                if self._buffer and not self.started:
                    # Tolerate (and skip) blank lines before the start
                    # line, per RFC 7230 §3.5.
                    while self._buffer[:2] == b"\r\n" or self._buffer[:1] == b"\n":
                        del self._buffer[:2 if self._buffer[:2] == b"\r\n" else 1]
                    if self._buffer:
                        self.started = True
                end = self._buffer.find(b"\n")
                if end < 0:
                    if len(self._buffer) > MAX_REQUEST_LINE_BYTES:
                        self._fail(*self._LINE_TOO_LONG)
                    return
                line = bytes(self._buffer[:end]).rstrip(b"\r")
                del self._buffer[:end + 1]
                if not line and not self.started:
                    continue
                if len(line) > MAX_REQUEST_LINE_BYTES:
                    self._fail(*self._LINE_TOO_LONG)
                    return
                self.started = True
                if not self._parse_start_line(line):
                    return
                self.state = "headers"
            elif self.state == "headers":
                end = self._buffer.find(b"\n")
                if end < 0:
                    self._header_pressure(len(self._buffer))
                    return
                line = bytes(self._buffer[:end]).rstrip(b"\r")
                del self._buffer[:end + 1]
                if not line:
                    self._finish_headers()
                    return
                if not self._parse_header_line(line):
                    return
            elif self.state == "body":
                take = min(self._body_remaining, len(self._buffer))
                if take:
                    self._body.extend(self._buffer[:take])
                    del self._buffer[:take]
                    self._body_remaining -= take
                if self._body_remaining == 0:
                    self._message.body = bytes(self._body)
                    self.state = "complete"
                return
            else:  # paused / complete / error: nothing to do
                return

    def _parse_start_line(self, line: bytes) -> bool:
        raise NotImplementedError

    def _finish_headers(self) -> None:
        raise NotImplementedError

    def _header_pressure(self, pending: int) -> None:
        if self._header_bytes + pending > MAX_HEADER_BYTES:
            self._fail(431, "HeadersTooLarge",
                       f"header section exceeds {MAX_HEADER_BYTES} bytes")

    def _parse_header_line(self, line: bytes) -> bool:
        headers: Headers = self._message.headers
        self._header_bytes += len(line) + 2
        if self._header_bytes > MAX_HEADER_BYTES:
            self._fail(431, "HeadersTooLarge",
                       f"header section exceeds {MAX_HEADER_BYTES} bytes")
            return False
        if len(headers) >= MAX_HEADER_COUNT:
            self._fail(431, "HeadersTooLarge",
                       f"more than {MAX_HEADER_COUNT} header lines")
            return False
        text = line.decode("latin-1")
        if text[:1] in (" ", "\t"):
            # Obsolete line folding (RFC 7230 §3.2.4 allows a 400): joining
            # it would make a header value nobody sent.
            self._fail(400, "BadRequest",
                       f"obsolete line folding in {text[:100]!r}")
            return False
        name, separator, value = text.partition(":")
        if not separator or not name or name != name.strip():
            self._fail(400, "BadRequest",
                       f"malformed header line {text[:100]!r}")
            return False
        headers.add(name, value.strip())
        return True


def _parse_http_version(version: str) -> Optional[Tuple[int, int]]:
    """``"HTTP/1.1"`` → ``(1, 1)``; ``None`` when it is not of that shape."""
    if not version.startswith("HTTP/") or version.count(".") != 1:
        return None
    try:
        major, minor = version[5:].split(".")
        return int(major), int(minor)
    except ValueError:
        return None


class RequestParser(_MessageParser):
    """An incremental HTTP/1.1 request parser (one request at a time).

    Feed raw socket bytes with :meth:`feed`; watch :attr:`state`:

    - ``"line"`` / ``"headers"``: still framing, keep feeding.
    - ``"paused"``: the header block is complete and :attr:`request` is
      set (body unread).  The transport must consult
      :meth:`Dispatcher.needs_body` and either :meth:`begin_body` or
      dispatch immediately.
    - ``"body"``: reading ``Content-Length`` bytes; keep feeding.
    - ``"complete"``: :attr:`request` is fully framed (body attached when
      one was read).  :attr:`remainder` counts any pipelined extra bytes.
    - ``"error"``: :attr:`error` holds the connection-fatal verdict.

    All buffers are bounded: the request line by
    :data:`MAX_REQUEST_LINE_BYTES`, the header block by
    :data:`MAX_HEADER_BYTES` / :data:`MAX_HEADER_COUNT`, the body by the
    dispatch-level :data:`MAX_BODY_BYTES` check (413 before
    :meth:`begin_body` is ever called).
    """

    _LINE_TOO_LONG = (414, "RequestLineTooLong",
                      f"request line exceeds {MAX_REQUEST_LINE_BYTES} bytes")

    @property
    def request(self) -> Optional[ParsedRequest]:
        return self._message

    def begin_body(self) -> None:
        """Resume framing into the body after a ``needs_body`` verdict."""
        assert self.state == "paused" and self.request is not None
        length = self.request.content_length or 0
        self._body_remaining = length
        self.state = "body" if length > 0 else "complete"
        if self.state == "body":
            self._advance()

    def _parse_start_line(self, line: bytes) -> bool:
        text = line.decode("latin-1")
        parts = text.split()
        if len(parts) != 3:
            self._fail(400, "BadRequest",
                       f"malformed request line {text[:100]!r}")
            return False
        method, target, version = parts
        version_tuple = _parse_http_version(version)
        if version_tuple is None:
            self._fail(400, "BadRequest",
                       f"malformed HTTP version {version[:20]!r}")
            return False
        if version_tuple[0] != 1:
            self._fail(505, "HTTPVersionNotSupported",
                       f"unsupported HTTP version {version[:20]!r}")
            return False
        self._message = ParsedRequest(method=method, target=target,
                                      version=version_tuple, headers=Headers())
        return True

    def _finish_headers(self) -> None:
        assert self.request is not None
        request = self.request
        if "Transfer-Encoding" in request.headers:
            request.chunked = True
        raw_length = request.headers.get("Content-Length")
        if raw_length is not None:
            try:
                request.content_length = int(raw_length)
            except ValueError:
                request.content_length = -1
            else:
                if request.content_length < 0:
                    request.content_length = -1
        self.state = "paused"


class ResponseParser(_MessageParser):
    """The response side of the same framing (one response at a time).

    What the coordinator's shard connection reads with: feed it what
    ``recv`` returned until :attr:`state` is ``"complete"``
    (:attr:`response` is framed, body attached) or ``"error"``
    (:attr:`error` says why the bytes are not a response these servers
    send).  It never pauses — a response's body always follows — and it
    accepts exactly what :meth:`WireResponse.encode_head` emits: a status
    line, a header block under the request side's caps and a numeric
    ``Content-Length`` of at most :data:`MAX_BODY_BYTES`; no chunked
    bodies, no read-until-close.  :attr:`started` stays false until the
    first byte of the status line arrives, which is how a caller tells a
    keep-alive socket the server had already closed (safe to retry) from
    a response cut short (not).
    """

    _LINE_TOO_LONG = (502, "BadResponse",
                      f"status line exceeds {MAX_REQUEST_LINE_BYTES} bytes")

    @property
    def response(self) -> Optional[ParsedResponse]:
        return self._message

    def _parse_start_line(self, line: bytes) -> bool:
        text = line.decode("latin-1")
        version, _, rest = text.partition(" ")
        status, _, reason = rest.strip().partition(" ")
        version_tuple = _parse_http_version(version)
        if (version_tuple is None or version_tuple[0] != 1
                or len(status) != 3 or not status.isdecimal()):
            self._fail(502, "BadResponse",
                       f"malformed status line {text[:100]!r}")
            return False
        self._message = ParsedResponse(status=int(status), reason=reason.strip(),
                                       version=version_tuple, headers=Headers())
        return True

    def _finish_headers(self) -> None:
        headers: Headers = self._message.headers
        raw_length = headers.get("Content-Length", "")
        if "Transfer-Encoding" in headers or not raw_length.isdecimal():
            self._fail(502, "BadResponse",
                       "response without a numeric Content-Length "
                       f"(got {raw_length[:20]!r})")
        elif int(raw_length) > MAX_BODY_BYTES:
            self._fail(502, "BadResponse",
                       f"response body exceeds {MAX_BODY_BYTES} bytes")
        else:
            self._body_remaining = int(raw_length)
            self.state = "body"
            self._advance()


class Dispatcher:
    """The request lifecycle over one bound app.

    ``app`` needs only ``post_routes()`` (path → ``handler(json_body)``)
    and ``get_routes()`` (path → ``handler(query_params)``); a handler
    returns a JSON-native payload, or a ``(content_type, text)`` pair for
    a non-JSON body.  ``dispatch`` runs on the transport's pool workers; it
    is fully thread-safe because all mutable state lives in the app/engine
    layers below, which already serve concurrent callers.
    """

    def __init__(self, app, *, quiet: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 record_wire_bytes: Optional[Callable[[str, int], None]] = None):
        self.app = app
        self.quiet = quiet
        self.fault_plan = fault_plan
        self.record_wire_bytes = record_wire_bytes

    # -- the body decision (transport asks this at header-complete time) ----------------

    def needs_body(self, request: ParsedRequest) -> bool:
        """True when the body must be framed before dispatch can answer.

        Mirrors the pinned POST error ladder: a request that will die on
        routing (404/405), media type (415), transfer encoding (501),
        length (411) or size (413) is answered immediately, without
        waiting for body bytes — the fuzzer pins that behaviour.
        """
        if request.method != "POST":
            return False
        if request.route not in self.app.post_routes():
            return False
        content_type = request.headers.get("Content-Type", "application/json")
        if "json" not in content_type:
            return False
        if request.chunked:
            return False
        length = request.content_length
        if length is None or length < 0 or length > MAX_BODY_BYTES:
            return False
        return True

    # -- responses ----------------------------------------------------------------------

    def framing_response(self, error: _FramingError,
                         client: str = "-") -> WireResponse:
        """The (connection-closing) response to an unparseable request."""
        trace_id = Trace().trace_id
        response = self._json_response(error.status, {"error": {
            "type": error.error_type, "message": error.message,
        }}, close=True, trace_id=trace_id)
        self.access_log("-", "-", response.status, 0.0, client, trace_id)
        return response

    def pipelining_response(self, client: str = "-") -> WireResponse:
        """The rejection for pipelined requests (bytes beyond one request)."""
        trace_id = Trace().trace_id
        response = self._json_response(400, {"error": {
            "type": "BadRequest",
            "message": "request pipelining is not supported; await each "
                       "response before sending the next request",
        }}, close=True, trace_id=trace_id)
        self.access_log("-", "-", 400, 0.0, client, trace_id)
        return response

    def truncated_response(self, client: str = "-") -> WireResponse:
        """Best-effort answer when the peer closed mid-request."""
        trace_id = Trace().trace_id
        response = self._json_response(400, {"error": {
            "type": "BadRequest",
            "message": "connection closed before the request completed",
        }}, close=True, trace_id=trace_id)
        self.access_log("-", "-", 400, 0.0, client, trace_id)
        return response

    def shed_response(self, error: Exception, request: ParsedRequest,
                      client: str = "-") -> WireResponse:
        """The 503 for a request shed at enqueue time (transport overload)."""
        trace_id = Trace().trace_id
        response = self._json_response(
            status_for(error), error_body(error),
            retry_after=getattr(error, "retry_after", None), trace_id=trace_id)
        self.access_log(request.method, request.route, response.status, 0.0,
                        client, trace_id)
        return response

    def dispatch(self, request: ParsedRequest, client: str = "-") -> WireResponse:
        """One request, end to end: trace, fault, route, handle, serialise."""
        trace = Trace(sanitize_trace_id(request.headers.get("X-Trace-Id")))
        started = time.perf_counter()
        route = request.route
        with activate(trace):
            with span("request", method=request.method, path=route):
                response = self._respond(request, trace, route)
        response.trace_id = trace.trace_id
        if response.reset:
            self.access_log(request.method, route, -1, 0.0, client, trace.trace_id)
            return response
        if not request.keep_alive:
            response.close = True
        if self.record_wire_bytes is not None:
            self.record_wire_bytes("out", len(response.body))
        duration_ms = (time.perf_counter() - started) * 1000.0
        self.access_log(request.method, route, response.status, duration_ms,
                  client, trace.trace_id)
        return response

    # -- internals ----------------------------------------------------------------------

    def access_log(self, method: str, route: str, status: int,
                   duration_ms: float, client: str, trace_id: str) -> None:
        """Emit the structured access-log line (one per request served)."""
        _access_log.info(
            "%s %s -> %s", method, route, status,
            extra={
                "event": "http_request", "method": method, "path": route,
                "status": status, "duration_ms": duration_ms,
                "client": client, "trace_id": trace_id,
            },
        )

    def _respond(self, request: ParsedRequest, trace: Trace,
                 route: str) -> WireResponse:
        fault_response, drip = self._inject_fault(request, route)
        if fault_response is not None:
            return fault_response
        if request.method == "GET":
            response = self._respond_get(request, trace, route)
        elif request.method == "POST":
            response = self._respond_post(request, trace, route)
        else:
            response = self._json_response(501, {"error": {
                "type": "NotImplemented",
                "message": f"unsupported method {request.method!r}",
            }}, close=request.body_indicated)
        if drip is not None:
            response.drip = drip
        return response

    def _inject_fault(
        self, request: ParsedRequest, route: str,
    ) -> Tuple[Optional[WireResponse], Optional[FaultSpec]]:
        """Consult the fault plan (chaos runs only).

        Returns ``(response, drip)``: a non-None response means the fault
        fully handled the request (the app must not run).  Latency faults
        sleep here and proceed; slow-drip faults return the spec for the
        transport to pace the body with; ``http_5xx`` answers with the
        injected status; ``error`` resets the connection without a
        response.
        """
        if self.fault_plan is None:
            return None, None
        fault = self.fault_plan.decide("handle", route)
        if fault is None:
            return None, None
        if fault.kind == "latency":
            time.sleep(fault.latency)
            return None, None
        if fault.kind == "slow_drip":
            return None, fault
        if fault.kind == "http_5xx":
            return self._json_response(fault.status, {"error": {
                "type": "InjectedFault",
                "message": f"injected HTTP {fault.status} "
                           f"(fault plan, {route})",
            }}, close=request.body_indicated), None
        # "error": a mid-request connection reset — the transport shuts the
        # socket without a response, exactly what a crashed peer causes.
        return WireResponse(status=-1, reset=True, close=True), None

    def _respond_get(self, request: ParsedRequest, trace: Trace,
                     route: str) -> WireResponse:
        # GETs never read a body; if a client sent one anyway, the unread
        # bytes must not be parsed as the next request on this connection.
        close = request.body_indicated
        handler = self.app.get_routes().get(route)
        if handler is None:
            status, payload = self._routing_error(route, request.method)
            return self._json_response(status, payload, close=close)
        try:
            with span("handle", endpoint=route):
                payload = handler(query_params(request.target))
        except Exception as error:  # noqa: BLE001 - every failure becomes a body
            return self._error_response(error, close=close)
        if isinstance(payload, tuple):
            content_type, text = payload
            return self._text_response(200, text, content_type, close=close)
        return self._json_response(
            200, self._attach_debug(payload, request, trace), close=close)

    def _respond_post(self, request: ParsedRequest, trace: Trace,
                      route: str) -> WireResponse:
        handler = self.app.post_routes().get(route)
        if handler is None:
            status, payload = self._routing_error(route, request.method)
            return self._json_response(status, payload,
                                       close=request.body_indicated)
        content_type = request.headers.get("Content-Type", "application/json")
        if "json" not in content_type:
            return self._json_response(415, {"error": {
                "type": "UnsupportedMediaType",
                "message": f"expected application/json, got {content_type!r}",
            }}, close=request.body_indicated)
        # Bodies whose framing we cannot (chunked) or will not (missing
        # length) read would desync the keep-alive connection — the unread
        # bytes would be parsed as the next request line — so those error
        # paths also close the connection.
        if request.chunked:
            return self._json_response(501, {"error": {
                "type": "NotImplemented",
                "message": "chunked transfer encoding is not supported; "
                           "send a Content-Length",
            }}, close=True)
        length = request.content_length
        if length is None or length < 0:
            return self._json_response(411, {"error": {
                "type": "LengthRequired",
                "message": "a valid Content-Length header is required",
            }}, close=True)
        if length > MAX_BODY_BYTES:
            return self._json_response(413, {"error": {
                "type": "PayloadTooLarge",
                "message": f"request body exceeds {MAX_BODY_BYTES} bytes",
            }}, close=True)
        raw = request.body if request.body is not None else b""
        if self.record_wire_bytes is not None:
            self.record_wire_bytes("in", len(raw))
        with span("read_body"):
            try:
                body = json.loads(raw or b"null")
            except json.JSONDecodeError as error:
                return self._json_response(400, {"error": {
                    "type": "InvalidJSON", "message": str(error),
                }})
        try:
            with span("handle", endpoint=route):
                payload = handler(body)
        except Exception as error:  # noqa: BLE001 - every failure becomes a body
            return self._error_response(error)
        return self._json_response(
            200, self._attach_debug(payload, request, trace))

    def _routing_error(self, route: str, method: str) -> Tuple[int, Dict[str, Any]]:
        if route in self.app.post_routes() or route in self.app.get_routes():
            return 405, {"error": {
                "type": "MethodNotAllowed",
                "message": f"{method} is not supported on {route}",
            }}
        return 404, {"error": {
            "type": "NotFound",
            "message": f"unknown endpoint {route!r}; "
                       "see docs/server.md for the API reference",
        }}

    def _debug_trace_requested(self, request: ParsedRequest) -> bool:
        value = request.headers.get("X-Debug-Trace", "") or ""
        return value.strip().lower() in _DEBUG_TRACE_VALUES

    def _attach_debug(self, payload: Any, request: ParsedRequest,
                      trace: Trace) -> Any:
        """Add the ``debug.trace`` section when the client opted in.

        The span tree is rendered here, before serialisation, so the
        ``serialize`` span of *this* request necessarily reports itself
        in-progress; its cost is visible as the request/handle gap instead.
        """
        if self._debug_trace_requested(request) and isinstance(payload, dict):
            return {**payload, "debug": {"trace": trace.to_dict()}}
        return payload

    def _error_response(self, error: Exception, *,
                        close: bool = False) -> WireResponse:
        """One failed request's response: status, error body, Retry-After.

        Admission rejections (and anything else carrying a ``retry_after``
        attribute) get the standard ``Retry-After`` header so well-behaved
        clients back off instead of hammering an overloaded server.
        """
        return self._json_response(status_for(error), error_body(error),
                                   retry_after=getattr(error, "retry_after", None),
                                   close=close)

    def _json_response(self, status: int, payload: Any, *,
                       retry_after: Optional[float] = None,
                       close: bool = False,
                       trace_id: Optional[str] = None) -> WireResponse:
        with span("serialize"):
            body = json.dumps(payload).encode("utf-8")
        return WireResponse(status=status, body=body,
                            content_type="application/json",
                            retry_after=retry_after, close=close,
                            trace_id=trace_id)

    def _text_response(self, status: int, text: str, content_type: str, *,
                       close: bool = False) -> WireResponse:
        with span("serialize"):
            body = text.encode("utf-8")
        return WireResponse(status=status, body=body,
                            content_type=content_type, close=close)


def shut_socket(sock: socket.socket) -> None:
    """Best-effort ``SHUT_RDWR`` (the peer may already be gone)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
