"""A stdlib HTTP client and load generator for ``repro.server``.

:class:`ServerClient` is the Python-side counterpart of the wire API in
``docs/server.md``: one method per endpoint, triples passed as
:class:`~repro.rdf.triple.Triple` objects and shipped in the lossless
dictionary form, server-side failures surfaced as
:class:`~repro.errors.ServerError` carrying the HTTP status and the
structured error type the server reported.

The transport keeps one persistent connection per thread (the server
speaks HTTP/1.1 with Content-Length framing, so keep-alive is free):
repeated requests skip the TCP handshake, which is what makes a
coordinator→shard fan-out viable and measurably speeds the load
generator.  A request that hits a *stale* keep-alive socket — the server
closed an idle connection between requests — is retried exactly once on a
fresh connection; the retry only fires for idempotent requests (GETs and
the read-only query/scan POSTs) whose failure arrived before a byte of
response on a previously-used socket, so a non-idempotent insert is never
replayed blindly.

:func:`generate_load` is the benchmark driver: N client threads, each with
its own connection, replaying a shared list of request payloads against a
live server and reporting aggregate QPS plus client-observed latency
percentiles.  ``python -m repro.workloads`` is its CLI face.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServerError, WorkloadError
from repro.io.serialization import term_to_dict, triple_to_dict
from repro.obs.tracing import current_trace
from repro.rdf.triple import Triple, TriplePattern
from repro.service.metrics import percentile

__all__ = ["ServerClient", "generate_load", "query_payloads", "trace_costs"]

#: Connection failures that can hit a reused keep-alive socket before any
#: response byte arrives; safe to retry once on a fresh connection — for
#: idempotent requests only (the server may have processed a request whose
#: response was lost, so replaying a write could apply it twice).
_STALE_SOCKET_ERRORS = (http.client.RemoteDisconnected, http.client.BadStatusLine,
                        BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

#: POST endpoints that are pure reads: replaying one cannot change state.
_IDEMPOTENT_POST_PATHS = frozenset(
    {"/v1/knn", "/v1/range", "/v1/shard/knn", "/v1/shard/range"}
)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """The ``Retry-After`` header as seconds (the servers only emit the
    integer-seconds form), or ``None`` when absent/unparseable."""
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _pattern_payload(pattern: TriplePattern) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for position in ("subject", "predicate", "object"):
        term = getattr(pattern, position)
        if term is not None:
            # The lossless dictionary form, like query triples: str(term) is
            # lossy (a literal's datatype is dropped, a concept name holding
            # ':' reparses as prefix:name) and the server-side pattern match
            # is strict equality, so a lossy round trip silently matches the
            # wrong set.
            payload[position] = term_to_dict(term)
    return payload


class ServerClient:
    """A small, dependency-free client for one ``repro.server`` instance.

    Thread-compatibility: one client may be shared across threads — the
    persistent connection lives in thread-local storage, so every thread
    reuses its *own* socket.  The load generator still gives each thread its
    own instance to keep accounting separate.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ServerError(f"unsupported URL scheme {parsed.scheme!r} "
                              f"in {base_url!r} (only http is spoken)")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._path_prefix = parsed.path.rstrip("/")
        self._local = threading.local()
        # Every live connection across all threads, so close_all() can
        # actually release the sockets other threads opened (the thread-
        # local slot alone is invisible from the closing thread).
        self._connections_lock = threading.Lock()
        self._connections: set = set()
        self._stats_lock = threading.Lock()
        self._stats = {"requests": 0, "connections_opened": 0,
                       "requests_reused": 0, "stale_retries": 0}

    def _note(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[counter] += amount

    def stats(self) -> Dict[str, int]:
        """Transport counters: requests, opened connections, keep-alive reuse
        (``requests_reused``) and one-shot stale-socket retries — enough to
        tell whether the 44 ms-floor fix (TCP_NODELAY + reuse) is working."""
        with self._stats_lock:
            return dict(self._stats)

    # -- the persistent per-thread connection -------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
            self._local.served = 0
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            with self._connections_lock:
                self._connections.discard(connection)
            connection.close()
        self._local.connection = None
        self._local.served = 0

    def close(self) -> None:
        """Close the calling thread's persistent connection (if any).

        Other threads' connections are untouched (they live in their own
        thread-local slots; use :meth:`close_all` at teardown to release
        every socket the client ever opened).
        """
        self._drop_connection()

    def close_all(self) -> None:
        """Close every connection this client holds, across all threads.

        Teardown-only: a thread with a request in flight on one of these
        sockets sees it fail (and its thread-local slot is repaired on the
        next use by the stale-socket handling).
        """
        self._drop_connection()
        with self._connections_lock:
            connections, self._connections = set(self._connections), set()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ----------------------------------------------------------------------

    def _headers(self, extra: Optional[Dict[str, str]]) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        # Trace propagation: a request issued while a trace is active carries
        # its ID, so coordinator→shard hops (HttpShardTransport uses this
        # client) and client-side spans land in the same trace as the server
        # logs.  No header when untraced — the server mints its own.
        trace = current_trace()
        if trace is not None:
            headers["X-Trace-Id"] = trace.trace_id
        if extra:
            headers.update(extra)
        return headers

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None, *,
                headers: Optional[Dict[str, str]] = None,
                idempotent: Optional[bool] = None) -> Dict[str, Any]:
        """One HTTP round trip; non-2xx responses raise :class:`ServerError`.

        ``idempotent`` overrides the path-based safe-to-retry inference — an
        insert carrying an ``Idempotency-Key`` sets it true (the server
        deduplicates a replay), everything else relies on the default.
        """
        data = json.dumps(body).encode("utf-8") if body is not None else None
        raw, response = self.request_bytes(method, path, data, headers=headers,
                                           idempotent=idempotent)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
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
                      idempotent: Optional[bool] = None,
                      ) -> Tuple[bytes, http.client.HTTPResponse]:
        """One round trip over pre-encoded bytes, skipping response decoding.

        The load generator's fast path: encoding a payload once and never
        parsing successful response bodies keeps client-side CPU out of a
        throughput measurement.  Errors still decode — a 4xx/5xx raises the
        same structured :class:`ServerError` as :meth:`request`.
        """
        # http.client derives Content-Length from the bytes body; GETs carry
        # no body and no length header (a "Content-Length: 0" would make the
        # server treat the request as having an unread body and drop the
        # keep-alive connection).
        if idempotent is None:
            idempotent = (method in ("GET", "HEAD")
                          or path in _IDEMPOTENT_POST_PATHS)
        response, raw = self._round_trip(method, f"{self._path_prefix}{path}",
                                         data, self._headers(headers),
                                         idempotent=idempotent)
        if response.status >= 400:
            try:
                payload = json.loads(raw).get("error", {})
            except (json.JSONDecodeError, AttributeError):
                payload = {}
            retry_after = _parse_retry_after(response.getheader("Retry-After"))
            raise ServerError(
                payload.get("message",
                            raw.decode("utf-8", "replace") or response.reason),
                status=response.status, kind=payload.get("type"),
                retry_after=retry_after,
            )
        return raw, response

    def _round_trip(self, method: str, path: str, data: Optional[bytes],
                    headers: Dict[str, str], *,
                    idempotent: bool) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request over the thread's connection, reading the full body.

        A stale keep-alive socket (the server closed an idle connection, and
        the failure arrived before any response byte) is retried exactly
        once on a fresh connection — but only for *idempotent* requests: a
        reused-socket close proves the server shut the connection, not that
        it never processed the request, so a write (``/v1/insert``) whose
        response was lost must surface as an error for the caller to
        reconcile, never be silently replayed.  A failure on a *fresh*
        connection is a real connectivity problem and surfaces immediately.
        """
        for attempt in (1, 2):
            connection = self._connection()
            reused = self._local.served > 0
            try:
                if connection.sock is None:
                    # Connect eagerly so TCP_NODELAY is set before the first
                    # byte: a small POST otherwise sits in Nagle's buffer
                    # waiting on the peer's delayed ACK (the ~44 ms floor
                    # described in ROADMAP Open item 1).
                    connection.connect()
                    connection.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    self._note("connections_opened")
                connection.request(method, path, body=data, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except _STALE_SOCKET_ERRORS as error:
                self._drop_connection()
                if idempotent and reused and attempt == 1:
                    self._note("stale_retries")
                    continue
                raise ServerError(
                    f"cannot reach {self.base_url}: {error!r}"
                ) from error
            except (http.client.HTTPException, ConnectionError, TimeoutError,
                    OSError) as error:
                # Timeouts and other socket-level failures are never retried
                # here: the request may have reached the server (an insert
                # could have been applied), so replaying it blindly is not
                # this transport's call to make.
                self._drop_connection()
                raise ServerError(
                    f"transport failure talking to {self.base_url}: {error!r}"
                ) from error
            self._local.served += 1
            with self._stats_lock:
                self._stats["requests"] += 1
                if reused:
                    self._stats["requests_reused"] += 1
            if response.will_close:
                self._drop_connection()
            return response, raw
        raise AssertionError("unreachable")  # pragma: no cover

    # -- query payload builders (also used by the load generator) -----------------------

    @staticmethod
    def knn_payload(triple: Triple, k: int = 3, *,
                    pattern: TriplePattern | None = None,
                    deadline: float | None = None,
                    allow_partial: bool = False) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"triple": triple_to_dict(triple), "k": k}
        if pattern is not None:
            payload["pattern"] = _pattern_payload(pattern)
        if deadline is not None:
            payload["deadline"] = deadline
        if allow_partial:
            payload["allow_partial"] = True
        return payload

    @staticmethod
    def range_payload(triple: Triple, radius: float, *,
                      pattern: TriplePattern | None = None,
                      deadline: float | None = None,
                      allow_partial: bool = False) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"triple": triple_to_dict(triple), "radius": radius}
        if pattern is not None:
            payload["pattern"] = _pattern_payload(pattern)
        if deadline is not None:
            payload["deadline"] = deadline
        if allow_partial:
            payload["allow_partial"] = True
        return payload

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

    def range_batch(self, payloads: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """``POST /v1/range`` with a batch of query payloads; returns the results."""
        return self.request("POST", "/v1/range", {"queries": list(payloads)})["results"]

    def insert(self, triple: Triple, *, document_id: str | None = None,
               idempotency_key: str | None = None) -> Dict[str, Any]:
        """``POST /v1/insert`` with one triple; returns ``{"seq": ..., ...}``.

        With ``idempotency_key``, the server deduplicates replays of the
        same key — which is what makes the stale-socket retry (and any
        caller-level retry loop) safe for this write.
        """
        payload: Dict[str, Any] = {"triple": triple_to_dict(triple)}
        if document_id is not None:
            payload["document_id"] = document_id
        return self._insert_request(payload, idempotency_key)

    def insert_many(self, triples: Sequence[Triple], *,
                    document_id: str | None = None,
                    idempotency_key: str | None = None) -> Dict[str, Any]:
        """``POST /v1/insert`` with a batch; returns the acceptance summary."""
        inserts: List[Dict[str, Any]] = []
        for triple in triples:
            entry: Dict[str, Any] = {"triple": triple_to_dict(triple)}
            if document_id is not None:
                entry["document_id"] = document_id
            inserts.append(entry)
        return self._insert_request({"inserts": inserts}, idempotency_key)

    def _insert_request(self, payload: Dict[str, Any],
                        idempotency_key: str | None) -> Dict[str, Any]:
        if idempotency_key is None:
            return self.request("POST", "/v1/insert", payload)
        return self.request(
            "POST", "/v1/insert", payload,
            headers={"Idempotency-Key": idempotency_key},
            # The key makes a replay a no-op server-side, so the transport's
            # one-shot stale-socket retry becomes safe for this write.
            idempotent=True,
        )

    # -- shard endpoints (partition scans over raw coordinates) -------------------------

    def shard_knn(self, coordinates: Sequence[float], k: int = 3) -> Dict[str, Any]:
        """``POST /v1/shard/knn`` against a shard server; returns the scan."""
        return self.request("POST", "/v1/shard/knn",
                            {"coordinates": list(coordinates), "k": k})

    def shard_range(self, coordinates: Sequence[float], radius: float) -> Dict[str, Any]:
        """``POST /v1/shard/range`` against a shard server; returns the scan."""
        return self.request("POST", "/v1/shard/range",
                            {"coordinates": list(coordinates), "radius": radius})

    def shard_info(self) -> Dict[str, Any]:
        """``GET /v1/shard`` — which partition the shard serves."""
        return self.request("GET", "/v1/shard")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` — the unified metrics payload."""
        return self.request("GET", "/v1/metrics")

    def request_text(self, path: str, *,
                     headers: Optional[Dict[str, str]] = None) -> str:
        """One GET returning the raw body as text (non-JSON endpoints)."""
        response, raw = self._round_trip(
            "GET", f"{self._path_prefix}{path}", None,
            self._headers(headers), idempotent=True)
        if response.status >= 400:
            raise ServerError(raw.decode("utf-8", "replace") or response.reason,
                              status=response.status)
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


# -- the load generator --------------------------------------------------------------------

def query_payloads(triples: Sequence[Triple], count: int, *, k: int = 3,
                   radius: float = 0.1, knn_fraction: float = 0.6,
                   repeat_fraction: float = 0.3,
                   seed: int = 1) -> List[Tuple[str, Dict[str, Any]]]:
    """A reproducible wire-level mixed workload: ``(endpoint, payload)`` pairs.

    The HTTP twin of :func:`repro.workloads.queries.mixed_query_specs`, with
    the same mixing rules (k-NN share, in-batch repeats feeding the cache).
    """
    import random

    if not triples:
        raise WorkloadError("cannot derive query payloads from an empty triple set")
    if count < 1:
        raise WorkloadError("count must be >= 1")
    rng = random.Random(seed)
    payloads: List[Tuple[str, Dict[str, Any]]] = []
    for _ in range(count):
        if payloads and rng.random() < repeat_fraction:
            payloads.append(payloads[rng.randrange(len(payloads))])
            continue
        triple = triples[rng.randrange(len(triples))]
        if rng.random() < knn_fraction:
            payloads.append(("/v1/knn", ServerClient.knn_payload(triple, k)))
        else:
            payloads.append(("/v1/range", ServerClient.range_payload(triple, radius)))
    return payloads


def trace_costs(trace: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every span of a ``debug.trace`` tree carrying cost counters, flattened.

    Returns ``{"span", "depth", "cost", ["partition"]}`` entries in tree
    order — the ``execute`` span's cluster-wide totals first, then each
    ``shard_scan``'s per-partition share on a sharded deployment.
    """
    found: List[Dict[str, Any]] = []

    def visit(node: Dict[str, Any], depth: int) -> None:
        meta = node.get("meta") or {}
        cost = meta.get("cost")
        if isinstance(cost, dict):
            entry: Dict[str, Any] = {
                "span": node.get("name"), "depth": depth, "cost": dict(cost),
            }
            if meta.get("partition") is not None:
                entry["partition"] = meta["partition"]
            found.append(entry)
        for child in node.get("children", ()):
            visit(child, depth + 1)

    if trace:
        for root in trace.get("spans", ()):
            visit(root, 0)
    return found


def _uncached_variant(body: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``body`` whose cache key no workload payload shares.

    The load run caches every payload it sends, and a cached result runs
    no search — sampling one verbatim would always report empty costs.
    Bumping ``k`` (or nudging ``radius``) keeps the query representative
    while forcing a real execution.
    """
    variant = dict(body)
    if "k" in variant:
        variant["k"] = int(variant["k"]) + 1
    elif "radius" in variant:
        variant["radius"] = float(variant["radius"]) * 1.0009765625
    return variant


def generate_load(base_url: str, payloads: Sequence[Tuple[str, Dict[str, Any]]], *,
                  threads: int = 4, timeout: float = 30.0,
                  on_result: Callable[[Dict[str, Any]], None] | None = None,
                  trace_sample: bool = False,
                  cost_sample: bool = False) -> Dict[str, Any]:
    """Replay a wire workload from ``threads`` concurrent clients.

    The payload list is split round-robin across the threads (every payload
    is sent exactly once).  Latency is measured client-side per request;
    the summary reports aggregate QPS over the whole run plus interpolated
    percentiles in milliseconds.  ``on_result`` (optional) sees every
    response body, called from the issuing thread.

    With ``trace_sample=True`` one extra request (the first payload) is sent
    *after* the timed run with ``X-Debug-Trace`` set, and the server's span
    tree lands in the summary under ``"trace_sample"`` — the quickest way to
    see where one request's wall time goes without touching the measured
    QPS.  (Run after, not during: the debug round trip serialises the whole
    span tree into the response and must not pollute the latency samples.)
    ``cost_sample=True`` rides the same debug round trip and additionally
    reports that request's per-span cost counters under ``"cost_sample"``.
    Because the timed run itself caches every workload payload — and a
    cache hit runs no search, so carries no cost — the cost sample sends
    an *uncached variant* of the first payload (``k`` bumped by one, or
    ``radius`` nudged) so the traced request demonstrably executes.
    """
    if threads < 1:
        raise WorkloadError(f"threads must be >= 1, got {threads}")
    if not payloads:
        raise WorkloadError("the load generator needs at least one payload")

    # Encode every distinct payload exactly once, up front: repeats in the
    # list reuse the same dict object, so the memo also guarantees repeated
    # queries hit the server with byte-identical bodies (what the async
    # transport's wire cache keys on).  Encoding outside the timed loop —
    # and, when no ``on_result`` wants the bodies, never decoding success
    # responses — keeps client CPU from polluting a server measurement.
    encoded: Dict[int, bytes] = {}
    for _, body in payloads:
        if id(body) not in encoded:
            encoded[id(body)] = json.dumps(body).encode("utf-8")

    shards: List[List[Tuple[str, bytes, Dict[str, Any]]]] = [[] for _ in range(threads)]
    for position, (path, body) in enumerate(payloads):
        shards[position % threads].append((path, encoded[id(body)], body))

    latencies: List[List[float]] = [[] for _ in range(threads)]
    failures: List[Optional[Exception]] = [None] * threads

    def worker(shard_index: int) -> None:
        client = ServerClient(base_url, timeout=timeout)
        try:
            for path, data, body in shards[shard_index]:
                started = time.perf_counter()
                try:
                    if on_result is None:
                        client.request_bytes("POST", path, data)
                        latencies[shard_index].append(
                            time.perf_counter() - started)
                    else:
                        raw, _ = client.request_bytes("POST", path, data)
                        latencies[shard_index].append(
                            time.perf_counter() - started)
                        on_result(json.loads(raw))
                except Exception as error:  # noqa: BLE001 - reported to the caller
                    # Covers the callback too: a raising on_result must surface
                    # as a run failure, not silently abandon the shard.
                    failures[shard_index] = error
                    return
        finally:
            client.close()

    workers = [
        threading.Thread(target=worker, args=(index,), name=f"load-gen-{index}")
        for index in range(threads)
    ]
    started = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    wall_seconds = time.perf_counter() - started

    for failure in failures:
        if failure is not None:
            raise failure

    samples = [sample for shard in latencies for sample in shard]
    summary: Dict[str, Any] = {
        "threads": float(threads),
        "requests": float(len(samples)),
        "wall_seconds": wall_seconds,
        "qps": len(samples) / wall_seconds if wall_seconds > 0 else 0.0,
        "latency_ms_mean": sum(samples) / len(samples) * 1000.0,
        "latency_ms_p50": percentile(samples, 0.50) * 1000.0,
        "latency_ms_p90": percentile(samples, 0.90) * 1000.0,
        "latency_ms_p99": percentile(samples, 0.99) * 1000.0,
    }
    if trace_sample or cost_sample:
        path, body = payloads[0]
        if cost_sample:
            body = _uncached_variant(body)
        with ServerClient(base_url, timeout=timeout) as client:
            response = client.request("POST", path, body,
                                      headers={"X-Debug-Trace": "1"})
        trace = response.get("debug", {}).get("trace")
        if trace_sample:
            summary["trace_sample"] = trace
        if cost_sample:
            summary["cost_sample"] = trace_costs(trace)
    return summary
