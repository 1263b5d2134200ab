"""The service shell: what every serving tier is, written once.

A tier — full server, partition shard, scatter-gather coordinator — is a
set of endpoint handlers over some index.  Everything *around* the
handlers is the same for all three and lives here:

* :class:`ServiceShell` — the per-endpoint request counter, uptime, the
  close-once lifecycle (``closed`` / ``_check_open`` / ``close``), the
  metrics registry, the optional continuous profiler, and the routes
  every tier answers: ``/v1/healthz``, ``/v1/metrics`` (JSON and
  ``?format=prometheus``), ``/v1/debug/profile``.
* :class:`EngineShell` — additionally, what the two engine-backed tiers
  share: a :class:`~repro.service.engine.QueryEngine` behind an
  :class:`~repro.service.admission.AdmissionController`, the
  ``/v1/knn`` / ``/v1/range`` handler, and the ``serving`` / ``cache``
  sections of the metrics payload.

A tier subclasses one of them, sets :attr:`ServiceShell.role`, adds its
routes to :meth:`~ServiceShell.post_routes` / :meth:`~ServiceShell.get_routes`,
publishes its series in :meth:`~ServiceShell._bind_registry` and
releases what it owns in :meth:`~ServiceShell._teardown`.  Handlers take
and return plain JSON-native values, so tests and benchmarks can drive a
tier without a socket; :class:`~repro.server.http.SemTreeServer` binds any
of them to one.

The shell's registry is the tier's whole exposition: it adopts the
registries the served objects count on (see :mod:`repro.obs.registry`) and
adds the shell's own series, so ``/v1/metrics`` as JSON — each object's
section read back from its instruments — and ``?format=prometheus`` show
one set of numbers.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro import __version__
from repro.errors import QueryError, ServerClosingError
from repro.io.serialization import json_ready
from repro.obs import prometheus as obs_prometheus
from repro.obs.profile import SamplingProfiler, profile_endpoint
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import span
from repro.server.schemas import parse_query_request, render_results
from repro.service.admission import AdmissionController
from repro.service.engine import QueryEngine
from repro.service.planner import QueryKind, QuerySpec

__all__ = ["ServiceShell", "EngineShell"]

#: Zeroed latency sub-dictionary, so the metrics schema is stable before
#: the first sample lands.
_EMPTY_LATENCY = {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}


class ServiceShell:
    """Routes, observability and lifecycle common to every serving tier.

    Subclasses set up their own state *first* and call this constructor
    last: it ends by calling :meth:`_bind_registry`, which reads the
    finished tier.

    Parameters
    ----------
    profiler:
        A continuously running profiler (``--profile``); optional — the
        on-demand ``/v1/debug/profile`` endpoint works without one.
    """

    #: ``"server"`` / ``"shard"`` / ``"coordinator"``: the
    #: ``repro_build_info`` label and the name the tier goes by in messages.
    role = "service"

    #: The admission controller of an engine-backed tier, and the POST routes
    #: it admits; the transport sheds those (and only those) at enqueue time
    #: when a queue depth is configured.
    admission: Optional[AdmissionController] = None
    admitted_routes: frozenset = frozenset()

    def __init__(self, *, profiler: SamplingProfiler | None = None):
        self._started = time.monotonic()
        self._close_lock = threading.Lock()
        self._closed = False
        self.registry = MetricsRegistry()
        # ``repro_build_info`` carries role and version as labels with a
        # constant 1: the conventional way to make build metadata joinable.
        self.registry.gauge(
            "repro_build_info", "Build and role metadata (constant 1).",
            ("role", "version"),
        ).labels(self.role, __version__).set(1.0)
        self.registry.gauge(
            "repro_uptime_seconds", "Seconds since the application booted.",
        ).set_function(lambda: self.uptime_seconds)
        self._requests = self.registry.counter(
            "repro_http_requests_total", "HTTP requests received, by endpoint.",
            ("endpoint",))
        self._bind_registry()
        self.profiler = profiler

    def _bind_registry(self) -> None:
        """Publish the tier's series through :attr:`registry`: ``adopt`` the
        registries of the objects it serves, add gauges over live state."""

    # -- routing (consumed by repro.server.protocol.Dispatcher) -------------------------

    def post_routes(self) -> Dict[str, Callable[[Any], Any]]:
        """Path → ``handler(json_body)`` for POST endpoints."""
        return {}

    def get_routes(self) -> Dict[str, Callable[[Dict[str, str]], Any]]:
        """Path → ``handler(query_params)`` for GET endpoints."""
        return {
            "/v1/healthz": self.health,
            "/v1/metrics": self.handle_metrics,
            "/v1/debug/profile": self.debug_profile,
        }

    # -- wire-cache hooks (consumed by repro.server.http) -------------------------------

    def wire_cacheable_routes(self) -> frozenset:
        """Read-only endpoints whose byte-identical answers may be cached
        at the transport layer (same request body → same response body,
        for as long as :meth:`wire_cache_epoch` holds still).  None, unless
        a tier can name such an epoch."""
        return frozenset()

    def wire_cache_epoch(self) -> tuple:
        """A value that changes whenever any wire-cached answer could."""
        return ()

    # -- bookkeeping --------------------------------------------------------------------

    def _count(self, endpoint: str) -> None:
        self._requests.labels(endpoint).inc()

    def request_counts(self) -> Dict[str, int]:
        """Requests received so far, by endpoint (a stable read surface)."""
        return self._requests.by_label()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; endpoints refuse further work."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosingError(f"the {self.role} is shutting down")

    # -- the endpoints every tier answers -----------------------------------------------

    def health(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the tier's vitals."""
        raise NotImplementedError

    def metrics(self) -> Dict[str, Any]:
        """The tier's JSON metrics payload (see :meth:`handle_metrics`)."""
        raise NotImplementedError

    def handle_metrics(self, params: Dict[str, str]):
        """``GET /v1/metrics[?format=json|prometheus]``."""
        requested = params.get("format", "json")
        if requested == "json":
            self._count("metrics")
            return json_ready(self.metrics())
        if requested == "prometheus":
            return obs_prometheus.CONTENT_TYPE, self.metrics_prometheus()
        raise QueryError(f"unknown metrics format {requested!r}; "
                         "expected 'json' or 'prometheus'")

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — text exposition v0.0.4.

        Rendered from the instruments :meth:`metrics` reads, so the two
        formats cannot disagree.
        """
        self._count("metrics")
        return self.registry.render()

    def debug_profile(self, params: Dict[str, str]):
        """``GET /v1/debug/profile`` — sample the process and render the profile."""
        self._count("debug_profile")
        return profile_endpoint(params, self.profiler)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self, *, checkpoint: bool | None = None) -> Optional[int]:
        """Shut the tier down; idempotent, and safe to race.

        Returns what :meth:`_teardown` returns — the checkpointed
        ``wal_seq`` on a full server, ``None`` on tiers that own no
        durable state (which accept and ignore ``checkpoint``, so the
        transport closes any tier uniformly).
        """
        # Atomic test-and-set: a signal handler and a context-manager exit
        # may race to close; exactly one caller runs the teardown.
        with self._close_lock:
            if self._closed:
                return None
            self._closed = True
        if self.profiler is not None:
            self.profiler.stop()
        return self._teardown(checkpoint)

    def _teardown(self, checkpoint: bool | None) -> Optional[int]:
        """Release what the tier owns; runs exactly once."""
        return None


def _strictest_deadline(specs: List[QuerySpec],
                        default: Optional[float]) -> Optional[float]:
    """The tightest deadline in a batch (what admission judges the wait by)."""
    deadlines = [spec.deadline if spec.deadline is not None else default
                 for spec in specs]
    bounded = [deadline for deadline in deadlines if deadline is not None]
    return min(bounded) if bounded else None


class EngineShell(ServiceShell):
    """A tier answering ``/v1/knn`` / ``/v1/range`` through a query engine.

    Parameters
    ----------
    index:
        What the engine searches (an ``IngestingIndex`` on a full server,
        a ``ShardedIndex`` on a coordinator).
    workers / cache_capacity / default_deadline:
        Passed through to :class:`QueryEngine`, which serves each query on
        the thread that calls the handler; ``workers`` bounds how many
        searches run at once.
    max_queue_depth:
        Admission control (see :class:`AdmissionController`): bound on
        outstanding searches.  Defaults off — admission is opt-in.

    Remaining keyword arguments are :class:`ServiceShell`'s.
    """

    admitted_routes = frozenset({"/v1/knn", "/v1/range"})

    def __init__(self, index, *, workers: int = 4, cache_capacity: int = 1024,
                 default_deadline: float | None = None,
                 max_queue_depth: int | None = None, **shell_options):
        self.index = index
        self.engine = QueryEngine(
            index, workers=workers, cache_capacity=cache_capacity,
            default_deadline=default_deadline,
        )
        self.admission = AdmissionController(
            self.engine, max_queue_depth=max_queue_depth)
        super().__init__(**shell_options)

    def _bind_registry(self) -> None:
        self.registry.adopt(self.engine.metrics.registry)
        self.registry.adopt(self.admission.registry)
        self.registry.adopt(self.engine.cache.registry)
        self.registry.gauge(
            "repro_engine_workers", "Most searches the query engine runs at once.",
        ).set(float(self.engine.workers))

    def post_routes(self) -> Dict[str, Callable[[Any], Any]]:
        return {"/v1/knn": self.handle_knn, "/v1/range": self.handle_range}

    # -- query endpoints ----------------------------------------------------------------

    def handle_knn(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/knn`` — single or batched k-NN queries."""
        return self._handle_query(QueryKind.KNN, body, "knn")

    def handle_range(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/range`` — single or batched range queries."""
        return self._handle_query(QueryKind.RANGE, body, "range")

    def _handle_query(self, kind: QueryKind, body: Any, endpoint: str) -> Dict[str, Any]:
        self._check_open()
        self._count(endpoint)
        with span("parse"):
            specs, batched = parse_query_request(body, kind)
        if self.admission.enabled:
            # After parsing (a malformed body should stay 400), before any
            # engine work: a shed request must not take a search slot.
            self.admission.admit(
                queries=len(specs),
                deadline=_strictest_deadline(specs, self.engine.default_deadline),
            )
        results = self.engine.execute_batch(specs)
        if not batched:
            self._check_single_result(results[0])
        with span("render"):
            return render_results(results, batched)

    def _check_single_result(self, result) -> None:
        """Hook: raise to answer a single (un-batched) query with an error
        status instead of rendering ``result`` (which may carry a per-result
        error field, as every batched result does)."""

    # -- the metrics payload ------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """``serving`` + ``cache`` (schema-identical on every engine-backed
        tier), then the sections :meth:`_tier_metrics` adds."""
        # One source for serving + cache: QueryEngine.statistics() (its
        # cache section is CacheStats.to_dict() verbatim); the shell only
        # splits the sections apart and zero-fills the latency block.
        serving = self.engine.statistics()
        cache = serving.pop("cache")
        serving.setdefault("latency_ms", dict(_EMPTY_LATENCY))
        return {"serving": serving, "cache": cache, **self._tier_metrics()}

    def _tier_metrics(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _process_metrics(self, **vitals: Any) -> Dict[str, Any]:
        """The per-process section: uptime, request counts, ``vitals``, admission."""
        return {
            "uptime_seconds": self.uptime_seconds,
            "requests": self.request_counts(),
            **vitals,
            "admission": self.admission.snapshot(),
        }
