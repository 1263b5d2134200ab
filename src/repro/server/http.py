"""The HTTP transport: one ``selectors`` event loop, a worker pool.

:class:`SemTreeServer` binds one app (a
:class:`~repro.server.shell.ServiceShell`: full server, shard or
coordinator) to a host/port.  Every status, error body and close decision
comes from :mod:`repro.server.protocol`; this module only moves bytes, and
holds connections without holding threads:

- **One event loop** (a ``selectors.DefaultSelector`` on a dedicated
  thread) owns every socket: accept, non-blocking reads feeding the
  incremental :class:`~repro.server.protocol.RequestParser`, non-blocking
  buffered writes, idle reaping, and paced slow-drip chunks.  A thousand
  idle keep-alive connections cost a thousand registered file descriptors,
  not a thousand blocked threads.
- **A bounded worker pool** runs the app.  The loop hands each
  fully-framed request to a ``ThreadPoolExecutor``; the finished
  :class:`~repro.server.protocol.WireResponse` comes back over a
  completion queue and a self-pipe wakeup, and the loop writes it out.
- **Backpressure by design.**  While a request is in flight the loop stops
  reading that connection entirely (a pipelining client blocks in its own
  socket buffer, and bytes that *did* arrive early are rejected with a
  400); the write side buffers at most one response.  Together with the
  parser's line/header caps and the 413 body cap, per-connection memory is
  bounded at roughly one request plus one response.
- **Admission moves to enqueue time.**  With a ``max_queue_depth``
  configured on the app's admission controller, the loop sheds (503 +
  ``Retry-After``) *before* submitting to the pool, so overload never even
  costs a context switch.
- **Slowloris defence.**  ``idle_timeout`` reaps connections that stop
  making progress (drip-fed headers, stalled readers mid-response);
  ``request_timeout`` bounds a whole request's framing time no matter how
  steadily the bytes drip in.

The optional **wire cache** (off by default; the CLI enables it for
single-node servers) serves byte-identical repeat answers for read-only
endpoints straight from the loop thread: entries are keyed on
``(route, raw request body)`` and the cache as a whole belongs to one
``wire_cache_epoch()`` of the app — ``(tree generation, WAL sequence)`` for
a :class:`~repro.server.app.ServerApp` — so any insert drops every cached
answer (epochs never come back, so none of them could hit again).
Requests carrying deadlines, partial-result opt-ins,
debug-trace opt-ins, client ids under admission control, or any fault
plan bypass the cache entirely.

**Drain semantics** (pinned by ``tests/server/test_shutdown_drain.py``):
:meth:`SemTreeServer.close` stops accepting, drops idle connections,
finishes every in-flight request — frame, handle, *write the response* —
and only then closes the app (checkpointing the WAL position).
"""

from __future__ import annotations

import collections
import json
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, Optional, Tuple

from repro.faults import FaultPlan
from repro.obs.tracing import sanitize_trace_id
from repro.server.protocol import (Dispatcher, ParsedRequest, RequestParser,
                                   WireResponse, shut_socket)

__all__ = ["SemTreeServer"]

#: Bytes pulled per non-blocking socket read.
_RECV_SIZE = 64 * 1024

#: Histogram buckets for the loop-lag metric (seconds): the time a
#: finished response waited in the completion queue before the loop wrote
#: it — the single best indicator of a saturated or stalled event loop.
_LAG_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)

#: Size of the worker pool that runs the app: these workers parse JSON,
#: execute handlers (the engine searches on them) and serialise responses.
TRANSPORT_WORKERS = 8

#: Most response bodies the wire cache holds (a cold k-NN entry costs about
#: 3.9 KB of RSS); least recently used go first.
WIRE_CACHE_CAPACITY = 2048


class _Connection:
    """One accepted socket's state, owned exclusively by the loop thread."""

    __slots__ = ("sock", "client", "parser", "out", "state", "alive",
                 "last_activity", "request_started_at", "close_after_write",
                 "next_chunk_at", "early", "cache_slot", "events")

    def __init__(self, sock: socket.socket, client: str, now: float):
        self.sock = sock
        self.client = client
        self.parser = RequestParser()
        #: Pending output: ``(not_before, bytes)`` chunks (paced for drip).
        self.out: Deque[Tuple[float, bytes]] = collections.deque()
        #: "read" (framing a request), "busy" (handed to the pool) or
        #: "write" (response queued / partially written).
        self.state = "read"
        self.alive = True
        self.last_activity = now
        self.request_started_at: Optional[float] = None
        self.close_after_write = False
        self.next_chunk_at: Optional[float] = None
        self.early = False
        #: Armed when the in-flight request is wire-cacheable:
        #: ``(cache key, epoch at dispatch)``.
        self.cache_slot: Optional[Tuple[tuple, tuple]] = None
        #: The selector mask this socket is registered with (0: not registered).
        self.events = 0

    def reset_for_next_request(self) -> None:
        self.parser = RequestParser()
        self.state = "read"
        self.request_started_at = None
        self.next_chunk_at = None
        self.early = False
        self.cache_slot = None


class SemTreeServer:
    """The process-level front end: one app, one listening socket, one loop.

    Parameters
    ----------
    app:
        The :class:`~repro.server.shell.ServiceShell` to expose: a full
        :class:`~repro.server.app.ServerApp`, a
        :class:`~repro.server.shard.ShardApp` or a
        :class:`~repro.coordinator.app.CoordinatorApp`.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`bound_port` — this is what the tests and benchmarks do).
    request_timeout:
        Seconds a request may take to *frame* (first byte to last), however
        steadily its bytes drip in.
    idle_timeout:
        Seconds of *no progress* before a connection is reaped — an idle
        keep-alive socket, a slowloris drip-feeding headers, or a stalled
        reader mid-response.  Defaults to ``request_timeout``.
    fault_plan:
        Optional fault-injection plan for chaos runs (defaults to whatever
        ``$REPRO_FAULTS`` carries, usually nothing); see :mod:`repro.faults`.
    wire_cache:
        Enable the loop-side response byte cache (see the module
        docstring) for the app's ``wire_cacheable_routes()`` — only a full
        server names any.

    :meth:`serve_background` runs the loop on a daemon thread — in-process
    servers (tests, examples, benchmarks) and the CLIs alike.
    """

    def __init__(self, app, *, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: float = 30.0,
                 idle_timeout: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 wire_cache: bool = False):
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.app = app
        self.fault_plan = fault_plan
        self.request_timeout = request_timeout
        self.idle_timeout = request_timeout if idle_timeout is None else idle_timeout
        self.draining = False
        self.dispatcher = Dispatcher(app, fault_plan=fault_plan,
                                     record_wire_bytes=self.record_wire_bytes)

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)

        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                "listener")
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._wakeup_send.setblocking(False)
        self._selector.register(self._wakeup_recv, selectors.EVENT_READ,
                                "wakeup")

        self._executor = ThreadPoolExecutor(
            max_workers=TRANSPORT_WORKERS, thread_name_prefix="semtree-http")
        self._connections: Dict[socket.socket, _Connection] = {}
        self._pending = 0
        # Of the ``_pending`` requests, those on ``app.admitted_routes``:
        # the figure the enqueue-time shed compares with the queue depth.
        self._pending_queries = 0
        self._completions: Deque[Tuple[_Connection, WireResponse, float, bool]] = \
            collections.deque()
        self._completions_lock = threading.Lock()
        self._commands: Deque[Tuple[str, Optional[threading.Event]]] = \
            collections.deque()
        self._loop_thread: Optional[threading.Thread] = None
        self._closed = False

        # -- wire cache (loop-thread state; see module docstring) ---------
        self._cache_routes = (frozenset(app.wire_cacheable_routes())
                              if wire_cache else frozenset())
        self._cache: "collections.OrderedDict[tuple, bytes]" = \
            collections.OrderedDict()
        self._cache_epoch: tuple = ()

        registry = app.registry
        self._wire_bytes = registry.counter(
            "repro_http_bytes_total", "HTTP body bytes moved, by direction.",
            ("direction",))
        for direction in ("in", "out"):     # both series from boot, at 0
            self._wire_bytes.labels(direction)
        registry.gauge(
            "repro_open_connections",
            "Live HTTP connections held by the transport.",
        ).set_function(lambda: float(len(self._connections)))
        self._loop_lag = registry.histogram(
            "repro_loop_lag_seconds",
            "Delay between a response finishing and the event loop "
            "writing it (completion-queue wait).",
            buckets=_LAG_BUCKETS)
        self._cache_hits = registry.counter(
            "repro_wire_cache_hits_total",
            "Responses served from the transport's wire cache.",
        ).labels()
        self._cache_misses = registry.counter(
            "repro_wire_cache_misses_total",
            "Cacheable requests the wire cache could not serve.",
        ).labels()

    # -- wire accounting (fed by the Dispatcher + the cache path) ---------------------

    def record_wire_bytes(self, direction: str, count: int) -> None:
        self._wire_bytes.labels(direction).inc(count)

    def wire_bytes(self) -> Dict[str, int]:
        """HTTP body bytes moved so far, keyed ``in`` / ``out``."""
        return self._wire_bytes.by_label()

    def wire_cache_stats(self) -> Dict[str, int]:
        """Wire-cache counters: ``hits`` / ``misses`` / ``entries``."""
        return {"hits": self._cache_hits.get(), "misses": self._cache_misses.get(),
                "entries": len(self._cache)}

    # -- addresses ----------------------------------------------------------------------

    @property
    def server_address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    @property
    def bound_port(self) -> int:
        """The port actually bound (resolves ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.server_address[0]}:{self.bound_port}"

    # -- lifecycle ----------------------------------------------------------------------

    def serve_background(self) -> "SemTreeServer":
        """Serve on a daemon thread; returns once the socket is accepting."""
        if self._loop_thread is None or not self._loop_thread.is_alive():
            self._loop_thread = threading.Thread(
                target=self._run_loop, name="semtree-http-loop", daemon=True)
            self._loop_thread.start()
        return self

    def close(self, *, checkpoint: bool | None = None) -> Optional[int]:
        """Stop accepting, drain in-flight requests, shut the app down.

        The drain contract: every request
        whose first bytes arrived before shutdown completes fully —
        handler runs, response bytes written — before
        ``app.close(checkpoint=...)`` tears down the engine and
        checkpoints the WAL position.  Idle connections are dropped
        immediately; a request that never finishes framing is abandoned
        after ``request_timeout``.

        Returns the checkpointed ``wal_seq`` (see ``ServerApp.close``).
        """
        self.draining = True
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join()
            self._loop_thread = None
        elif not self._closed:
            # The loop never ran: tear down the sockets here.
            self._teardown_loop()
        self._executor.shutdown(wait=True)
        return self.app.close(checkpoint=checkpoint)

    def __enter__(self) -> "SemTreeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _close_idle_connections(self) -> None:
        """Drop connections with no request in flight (loop does the work).

        Tests use it to exercise client-side stale-connection retries.
        Blocks until the loop has processed the sweep.
        """
        if self._loop_thread is None or not self._loop_thread.is_alive():
            return
        done = threading.Event()
        self._commands.append(("close_idle", done))
        self._wake()
        done.wait(timeout=5.0)

    # -- the event loop -----------------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wakeup_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # queue full (a wakeup is already pending) or torn down

    def _run_loop(self) -> None:
        try:
            while True:
                timeout = self._loop_timeout()
                events = self._selector.select(timeout)
                now = time.monotonic()
                for key, mask in events:
                    if key.data == "listener":
                        self._accept(now)
                    elif key.data == "wakeup":
                        self._drain_wakeup()
                    else:
                        conn: _Connection = key.data
                        if not conn.alive:
                            continue
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn, now)
                        if conn.alive and mask & selectors.EVENT_WRITE:
                            self._flush(conn, now)
                self._drain_commands()
                self._drain_completions(now)
                self._flush_paced(now)
                self._reap(now)
                if self.draining and self._drained():
                    break
        finally:
            self._closed = True
            self._teardown_loop()

    def _loop_timeout(self) -> float:
        base = min(self.idle_timeout, self.request_timeout) / 4.0
        timeout = min(max(base, 0.01), 0.5)
        if self.draining:
            timeout = min(timeout, 0.05)
        now = time.monotonic()
        for conn in self._connections.values():
            if conn.next_chunk_at is not None:
                timeout = min(timeout, max(conn.next_chunk_at - now, 0.0))
        return timeout

    def _drained(self) -> bool:
        """True when shutdown may finish: nothing in flight anywhere."""
        if self._pending or self._completions:
            return False
        for conn in self._connections.values():
            if conn.state != "read" or conn.parser.started:
                return False
        # Only idle connections remain; drop them and finish.
        for conn in list(self._connections.values()):
            self._drop(conn)
        return True

    def _teardown_loop(self) -> None:
        for conn in list(self._connections.values()):
            self._drop(conn)
        for sock in (self._listener, self._wakeup_recv, self._wakeup_send):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()

    # -- accept / read ------------------------------------------------------------------

    def _accept(self, now: float) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            if self.draining:
                sock.close()
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock, f"{addr[0]}:{addr[1]}", now)
            self._connections[sock] = conn
            self._set_events(conn, selectors.EVENT_READ)

    def _on_readable(self, conn: _Connection, now: float) -> None:
        if conn.state != "read":
            return
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            if conn.parser.started:
                # The peer closed mid-request: best-effort structured 400.
                self._queue_response(
                    conn, self.dispatcher.truncated_response(conn.client),
                    now, close=True)
            else:
                self._drop(conn)
            return
        conn.last_activity = now
        if conn.request_started_at is None:
            conn.request_started_at = now
        conn.parser.feed(data)
        self._progress(conn, now)

    def _progress(self, conn: _Connection, now: float) -> None:
        """Advance one connection from framing toward dispatch."""
        parser = conn.parser
        if parser.state == "paused":
            assert parser.request is not None
            if self.dispatcher.needs_body(parser.request):
                parser.begin_body()
            else:
                conn.early = True
        if parser.state == "error":
            assert parser.error is not None
            self._queue_response(
                conn, self.dispatcher.framing_response(parser.error, conn.client),
                now, close=True)
            return
        if parser.state not in ("complete", "paused"):
            return
        if conn.early and parser.state == "paused":
            request = parser.request
        elif parser.state == "complete":
            request = parser.request
        else:
            return
        assert request is not None
        if parser.remainder and not (conn.early and request.body_indicated):
            # Bytes beyond the framed request arrived before we answered:
            # the client is pipelining, which this server rejects.
            self._queue_response(
                conn, self.dispatcher.pipelining_response(conn.client),
                now, close=True)
            return
        self._dispatch(conn, request, now)

    # -- dispatch -----------------------------------------------------------------------

    def _dispatch(self, conn: _Connection, request: ParsedRequest,
                  now: float) -> None:
        # The loop stops reading this connection while its request is in
        # flight: natural backpressure, and the pipelining check above
        # stays accurate because no new bytes are consumed.
        conn.state = "busy"
        self._unregister(conn)

        cached = self._cache_lookup(conn, request)
        if cached is not None:
            trace_id = sanitize_trace_id(request.headers.get("X-Trace-Id"))
            response = WireResponse(200, body=cached, trace_id=trace_id,
                                    close=not request.keep_alive)
            # Counted on its endpoint like a miss ("/v1/knn" → "knn"); the
            # engine never sees a hit, so serving.* does not count it.
            self.app._count(request.route.rsplit("/", 1)[1])
            self.record_wire_bytes("in", len(request.body or b""))
            self.record_wire_bytes("out", len(cached))
            self.dispatcher.access_log(request.method, request.route, 200,
                                       0.0, conn.client, trace_id)
            self._queue_response(conn, response, now)
            return

        query = (request.method == "POST"
                 and request.route in self.app.admitted_routes)
        admission = self.app.admission
        if (query and admission is not None
                and admission.max_queue_depth is not None
                and self._pending_queries >= admission.max_queue_depth):
            # Enqueue-time shedding: the pool is already holding a full
            # queue's worth of queries, so reject this one before paying for
            # a submit + context switch (the app-level check would only shed
            # it later, from a worker).  Health, metrics, insert and debug
            # requests are never queries: they neither count nor get shed.
            error = admission.shed_transport_overflow(
                pending=self._pending_queries)
            self._queue_response(
                conn, self.dispatcher.shed_response(error, request, conn.client),
                now)
            return

        self._pending += 1
        self._pending_queries += query
        self._executor.submit(self._worker_dispatch, conn, request, query)

    def _worker_dispatch(self, conn: _Connection, request: ParsedRequest,
                         query: bool) -> None:
        """Pool-thread half: run the shared dispatcher, post the result."""
        try:
            response = self.dispatcher.dispatch(request, conn.client)
        except Exception as error:  # noqa: BLE001 - the loop must never die
            response = WireResponse(500, body=json.dumps({"error": {
                "type": type(error).__name__, "message": str(error),
            }}).encode("utf-8"), close=True)
        with self._completions_lock:
            self._completions.append((conn, response, time.monotonic(), query))
        self._wake()

    def _drain_completions(self, now: float) -> None:
        while True:
            with self._completions_lock:
                if not self._completions:
                    return
                conn, response, finished_at, query = self._completions.popleft()
            self._pending -= 1
            self._pending_queries -= query
            self._loop_lag.observe(max(now - finished_at, 0.0))
            if not conn.alive:
                continue
            if response.reset:
                shut_socket(conn.sock)
                self._drop(conn)
                continue
            self._cache_fill(conn, response)
            self._queue_response(conn, response, now)

    # -- the wire cache (loop-thread only) ----------------------------------------------

    def _cache_lookup(self, conn: _Connection,
                      request: ParsedRequest) -> Optional[bytes]:
        route = request.route
        if route not in self._cache_routes or self.draining:
            return None
        if request.method != "POST" or request.body is None:
            return None
        if self.fault_plan is not None:
            return None
        admission = self.app.admission
        if admission is not None and admission.enabled:
            return None
        if "X-Debug-Trace" in request.headers:
            return None
        body = request.body
        # Deadlines and partial-result opt-ins make answers time- or
        # topology-dependent; anything mentioning them takes the full path.
        if b"deadline" in body or b"allow_partial" in body:
            return None
        epoch = self._cache_observe_epoch()
        key = (route, body)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._cache_hits.inc()
            return cached
        self._cache_misses.inc()
        conn.cache_slot = (key, epoch)
        return None

    def _cache_observe_epoch(self) -> tuple:
        """The app's epoch now; when it has moved, every entry is dead and is dropped."""
        epoch = self.app.wire_cache_epoch()
        if epoch != self._cache_epoch:
            self._cache.clear()
            self._cache_epoch = epoch
        return epoch

    def _cache_fill(self, conn: _Connection, response: WireResponse) -> None:
        slot = conn.cache_slot
        conn.cache_slot = None
        if slot is None and not self._cache:
            return  # nothing to store, nothing to drop (always so with the cache off)
        # Every response passes here, an insert's included, so the bodies it
        # killed go now rather than when newer entries have pushed them out.
        epoch = self._cache_observe_epoch()
        if slot is None or response.status != 200 or response.drip is not None:
            return
        key, looked_up_at = slot
        if looked_up_at != epoch:
            return  # an insert raced this query; the answer may be stale
        self._cache[key] = response.body
        self._cache.move_to_end(key)
        while len(self._cache) > WIRE_CACHE_CAPACITY:
            self._cache.popitem(last=False)

    # -- write side ---------------------------------------------------------------------

    def _queue_response(self, conn: _Connection, response: WireResponse,
                        now: float, *, close: bool = False) -> None:
        conn.state = "write"
        conn.close_after_write = (conn.close_after_write or close
                                  or response.close or self.draining)
        head = response.encode_head()
        if response.drip is not None and response.body:
            conn.out.append((0.0, head))
            at = now
            for pause, chunk in response.drip_chunks():
                at += pause
                conn.out.append((at, chunk))
        else:
            conn.out.append((0.0, head + response.body))
        self._flush(conn, now)

    def _flush(self, conn: _Connection, now: float) -> None:
        """Write as much buffered output as the socket (and pacing) allows."""
        conn.next_chunk_at = None
        while conn.out:
            not_before, data = conn.out[0]
            if not_before > now:
                conn.next_chunk_at = not_before
                self._want_write(conn, False)
                return
            try:
                sent = conn.sock.send(data)
            except BlockingIOError:
                self._want_write(conn, True)
                return
            except OSError:
                self._drop(conn)
                return
            conn.last_activity = now
            if sent < len(data):
                conn.out[0] = (not_before, data[sent:])
                self._want_write(conn, True)
                return
            conn.out.popleft()
        # Response fully written.
        if conn.close_after_write:
            self._drop(conn)
            return
        conn.reset_for_next_request()
        self._set_events(conn, selectors.EVENT_READ)

    def _flush_paced(self, now: float) -> None:
        for conn in list(self._connections.values()):
            if (conn.alive and conn.next_chunk_at is not None
                    and conn.next_chunk_at <= now):
                self._flush(conn, now)

    def _want_write(self, conn: _Connection, writable_interest: bool) -> None:
        self._set_events(conn,
                         selectors.EVENT_WRITE if writable_interest else 0)

    # -- selector bookkeeping -----------------------------------------------------------

    def _set_events(self, conn: _Connection, events: int) -> None:
        # The mask is kept on the connection: asking the selector about a
        # socket it does not hold raises a KeyError whose text is
        # repr(socket) — two syscalls per finished request.
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _unregister(self, conn: _Connection) -> None:
        self._set_events(conn, 0)

    def _drop(self, conn: _Connection) -> None:
        if not conn.alive:
            return
        conn.alive = False
        self._unregister(conn)
        self._connections.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------------------

    def _drain_wakeup(self) -> None:
        while True:
            try:
                if not self._wakeup_recv.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _drain_commands(self) -> None:
        while self._commands:
            command, done = self._commands.popleft()
            if command == "close_idle":
                for conn in list(self._connections.values()):
                    if conn.state == "read" and not conn.parser.started:
                        self._drop(conn)
            if done is not None:
                done.set()

    def _reap(self, now: float) -> None:
        """Close connections that stopped making progress (slowloris guard).

        - idle keep-alive (no request started): ``idle_timeout`` since the
          last byte in either direction;
        - mid-request framing (slow header/body drip): ``request_timeout``
          since the request's first byte, or ``idle_timeout`` since the
          last byte — whichever trips first;
        - mid-response (stalled reader): ``idle_timeout`` since the last
          successful write.

        Reaping closes the connection silently — no bytes of a response
        could be trusted to reach a peer this far gone.
        """
        for conn in list(self._connections.values()):
            if not conn.alive or conn.state == "busy":
                continue
            if conn.state == "read":
                if not conn.parser.started:
                    if (now - conn.last_activity > self.idle_timeout
                            or self.draining):
                        self._drop(conn)
                elif (now - conn.last_activity > self.idle_timeout
                      or (conn.request_started_at is not None
                          and now - conn.request_started_at
                          > self.request_timeout)):
                    self._drop(conn)
            elif conn.state == "write" and conn.next_chunk_at is None:
                if now - conn.last_activity > self.idle_timeout:
                    self._drop(conn)
