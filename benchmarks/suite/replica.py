"""The traced run's in-process replica of a server, built from public pieces.

The servers under test are subprocesses, so their inner layers cannot be
timed directly.  The traced run therefore rebuilds the same pipeline in the
benchmark process — ``RequestParser`` -> ``Dispatcher`` -> schema parse ->
``QueryEngine`` -> index -> render — on the same checkpoint, with a span
around every public entry point (see :data:`suite.spans.ONION`), and replays
each sampled request through it right after its round trip to the real
subprocess.  The difference between the two is what the process boundary
(socket, event loop, thread hand-offs) costs.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coordinator.sharded import ShardedIndex
from repro.coordinator.topology import ShardTopology
from repro.coordinator.transport import HttpShardTransport
from repro.core.cost import SearchCost
from repro.ingest import IngestingIndex
from repro.semantics.triple_distance import TripleDistance
from repro.server.__main__ import build_parser
from repro.server.bootstrap import derive_distance_from_state
from repro.server.protocol import Dispatcher, RequestParser
from repro.server.schemas import (parse_insert_request, parse_query_request,
                                  render_results)
from repro.service.engine import QueryEngine
from repro.service.planner import QueryKind
from repro.service.snapshot import load_index_payload, read_snapshot_payload
from repro.workloads import ServerClient

from .corpora import Request
from .spans import Tracer

__all__ = ["CountingDistance", "Replica", "load_checkpoint", "replay"]

#: The replica's engine is sized like the subprocess: by the server CLI's defaults.
_SERVER_DEFAULTS = build_parser()
ENGINE_WORKERS: int = _SERVER_DEFAULTS.get_default("workers")
CACHE_CAPACITY: int = _SERVER_DEFAULTS.get_default("cache_capacity")


class CountingDistance(TripleDistance):
    """The triple distance, counting how often it is evaluated."""

    def __init__(self, inner: TripleDistance):
        super().__init__(inner.term_distance, inner.weights)
        self.calls = 0

    def distance(self, triple_a, triple_b) -> float:
        self.calls += 1
        return super().distance(triple_a, triple_b)


def load_checkpoint(snapshot: pathlib.Path):
    """A checkpoint loaded the way server boot does it.

    Returns ``(index, counting distance, vocabulary hints, payload, seconds)``.
    """
    started = time.perf_counter()
    payload = read_snapshot_payload(snapshot)
    distance, hints = derive_distance_from_state(payload)
    counting = CountingDistance(distance)
    base = load_index_payload(payload, counting)
    return base, counting, hints, payload, time.perf_counter() - started


class _ReplicaApp:
    """``ServerApp``'s request pipeline, composed from the same public functions."""

    def __init__(self, tracer: Tracer, engine: QueryEngine,
                 index: Optional[IngestingIndex]):
        self.tracer = tracer
        self.engine = engine
        self.index = index
        #: Work counters of every query the engine actually executed.
        self.costs: List[Tuple[str, SearchCost]] = []

    def post_routes(self) -> Dict[str, Any]:
        return {"/v1/knn": lambda body: self._query(QueryKind.KNN, body),
                "/v1/range": lambda body: self._query(QueryKind.RANGE, body),
                "/v1/insert": self._insert}

    def get_routes(self) -> Dict[str, Any]:
        return {}

    def _query(self, kind: QueryKind, body: Any) -> Dict[str, Any]:
        with self.tracer.span("server.schemas.parse"):
            specs, batched = parse_query_request(body, kind)
        results = self.engine.execute_batch(specs)
        self.costs.extend((kind.value, result.cost) for result in results
                          if result.cost is not None)
        with self.tracer.span("server.schemas.render"):
            return render_results(results, batched)

    def _insert(self, body: Any) -> Dict[str, Any]:
        assert self.index is not None
        with self.tracer.span("server.schemas.parse"):
            inserts, _ = parse_insert_request(body)
        (triple, document_id), = inserts
        seq = self.index.insert(triple, document_id=document_id)
        return {"seq": seq, "delta_points": len(self.index.delta)}


class Replica:
    """One traced in-process pipeline: single-node, or a coordinator over live shards."""

    def __init__(self, tracer: Tracer, snapshot: pathlib.Path, wal: pathlib.Path, *,
                 shard_urls: Optional[Dict[str, str]] = None):
        self.tracer = tracer
        base, self.distance, hints, payload, self.load_seconds = load_checkpoint(snapshot)
        tracer.wrap(base, "embed_query", "embedding.transform")
        self.live: Optional[IngestingIndex] = None
        self.sharded: Optional[ShardedIndex] = None
        if shard_urls is None:
            tracer.wrap(base.tree, "k_nearest_state", "core.search")
            tracer.wrap(base.tree, "range_query_state", "core.search")
            self.live = served = IngestingIndex(
                base, wal, applied_seq=int(payload.get("wal_seq", 0)),
                vocabulary_hints=hints)
            tracer.wrap(self.live, "insert", "ingest.insert")
            tracer.wrap(self.live.wal, "append", "ingest.wal.append")
        else:
            self.transport = HttpShardTransport(ShardTopology(
                {partition: (url,) for partition, url in shard_urls.items()}))
            tracer.wrap(self.transport, "scan_knn", "coordinator.shard_scan")
            tracer.wrap(self.transport, "scan_range", "coordinator.shard_scan")
            self.sharded = served = ShardedIndex(base, self.transport)
        tracer.wrap(served, "search_k_nearest", "index.search")
        tracer.wrap(served, "search_range", "index.search")
        self.engine = QueryEngine(served, workers=ENGINE_WORKERS,
                                  cache_capacity=CACHE_CAPACITY)
        tracer.wrap(self.engine, "execute_batch", "service.engine")
        self.app = _ReplicaApp(tracer, self.engine, self.live)
        self.dispatcher = Dispatcher(self.app, quiet=True)

    def handle(self, request: Request) -> bytes:
        """Frame, dispatch and serialise one request; returns the response body."""
        wire = (f"POST {request.path} HTTP/1.1\r\nHost: replica\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(request.data)}\r\n\r\n").encode("latin-1") + request.data
        parser = RequestParser()
        with self.tracer.span("server.protocol.parse"):
            parser.feed(wire)
            if self.dispatcher.needs_body(parser.request):
                parser.begin_body()
        if parser.state != "complete":
            raise RuntimeError(f"replica could not frame the request: {parser.state}")
        with self.tracer.span("server.dispatch"):
            response = self.dispatcher.dispatch(parser.request)
        if response.status != 200:
            raise RuntimeError(f"replica answered {response.status}: {response.body[:200]!r}")
        return response.body

    def close(self) -> None:
        self.engine.close()
        if self.sharded is not None:
            self.sharded.close()
        if self.live is not None:
            self.live.close()


def replay(tracer: Tracer, url: str, replica: Replica,
           requests: Sequence[Request]) -> None:
    """One request at a time: round trip to the subprocess, then the replica."""
    with ServerClient(url) as client:
        for number, request in enumerate(requests):
            tracer.request = number
            with tracer.span("client.roundtrip"):
                client.request_bytes("POST", request.path, request.data)
            replica.handle(request)
