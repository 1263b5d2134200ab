"""The query-serving engine above :class:`SemTreeIndex`.

:class:`QueryEngine` is the runtime the ROADMAP's "serve heavy traffic"
north star asks for: it accepts single and batched k-NN / range /
pattern-filtered queries, caches their answers, bounds how many searches
run at once, and enforces per-query deadlines.  It holds no threads: every
query is served on the thread that called it.

Design notes
------------
* **Planning embeds each distinct triple once.**  Embedding a query triple
  is the expensive part of planning (O(pivots) semantic distances), so a
  batch shares one projection per triple; the tree search itself is
  read-only at query time.
* **Batches are deterministic.**  A batch is served in input order, one
  spec after another — a cache lookup, else a search — so its results are
  identical to sequential execution (:meth:`QueryEngine.execute_sequential`
  exists as the verification baseline).  A spec repeated in a batch is a
  result-cache hit on the first one's answer.
* **``workers`` searches run at once.**  A bounded semaphore of that size
  is the engine's queue: a caller past it waits for a slot, and that wait
  is what ``repro_queue_wait_seconds`` and the ``queue_wait`` span measure.
* **Deadlines bound waiting; a started search finishes.**  A deadline runs
  from when the engine accepted the batch.  A spec whose budget is spent
  before its turn, or before a slot frees, is answered ``timed_out``
  without searching.  A search that starts in time runs to completion,
  fills the cache (tagged with the generation it observed) and is judged
  when it ends.
* **The engine serves the search protocol, not the tree.**  Searches go
  through :meth:`ServableIndex.search_k_nearest` / ``search_range`` and the
  cache stores their *raw* (unfiltered, cache-stable) matches; every result
  — fresh or cached — is passed through ``overlay_matches`` before the
  pattern filter and truncation.  For a plain :class:`SemTreeIndex` the
  overlay is the identity and mutations must still be externally serialised
  (every ``insert_triple`` bumps the generation and invalidates the cache).
  For an :class:`~repro.ingest.ingesting.IngestingIndex` the overlay merges
  the live delta segment, so inserts interleave with queries with no
  quiescing and cached tree-side entries stay valid until a compaction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cost import SearchCost
from repro.core.semtree import SemanticMatch
from repro.errors import QueryError
from repro.obs.tracing import annotate_span, record_span, span
from repro.service.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.planner import (PlannedQuery, QueryKind, QueryPlanner, QuerySpec,
                                   ServableIndex)

__all__ = ["QueryEngine", "QueryResult"]

#: How many extra candidates a pattern-filtered k-NN query fetches, so the
#: pattern filter still leaves ``k`` results in the common case.
PATTERN_OVERSAMPLE = 4


@dataclass(frozen=True, slots=True)
class QueryResult:
    """The outcome of one served query, in batch input order.

    ``cached`` is True when the result was served from the result cache
    without running a tree search for this spec.  ``exception`` carries the
    original exception behind a non-empty ``error`` string (when the failure
    was an exception rather than a deadline), so front ends can map typed
    failures — e.g. a coordinator's :class:`~repro.errors.ShardError` — onto
    transport semantics instead of parsing the message.
    """

    spec: QuerySpec
    matches: Tuple[SemanticMatch, ...]
    cached: bool
    latency_seconds: float = 0.0
    timed_out: bool = False
    error: Optional[str] = None
    exception: Optional[BaseException] = field(default=None, compare=False,
                                               repr=False)
    visited_partitions: Tuple[str, ...] = field(default=(), compare=False,
                                                repr=False)
    #: Work counters of the search behind this result (``None`` when no
    #: search ran for this spec — a cache hit).
    cost: Optional[SearchCost] = field(default=None, compare=False, repr=False)
    #: ``None`` for a complete answer; the structured partial-answer marker
    #: (``{"answered": [...], "missed": {...}}``) when an ``allow_partial``
    #: query lost partitions.  Degraded results are never cached.
    degraded: Optional[Dict[str, object]] = field(default=None, compare=False,
                                                  repr=False)

    @property
    def ok(self) -> bool:
        """True when the query produced a result (no timeout, no error)."""
        return not self.timed_out and self.error is None


@dataclass(frozen=True, slots=True)
class _Execution:
    """Internal: one search's *raw* matches plus its observability counters.

    ``matches`` are the cache-stable, pre-filter matches the index's search
    protocol returned (``generation`` is the epoch it observed); the overlay
    and the pattern/k post-processing happen at serving time per spec.
    """

    matches: Tuple[SemanticMatch, ...]
    visited_partitions: Tuple[str, ...]
    elapsed: float
    generation: int
    cost: SearchCost = field(default_factory=SearchCost)
    degraded: Optional[Dict[str, object]] = None


class QueryEngine:
    """Serving engine over one built :class:`SemTreeIndex`.

    Parameters
    ----------
    index:
        The built index to serve (building it is the caller's job).
    workers:
        How many searches run at once; callers beyond it wait for a slot.
    cache_capacity:
        Most entries the result cache holds (see
        :class:`~repro.service.cache.ResultCache`).
    default_deadline:
        Per-query time budget in seconds applied when a spec carries none
        (``None`` = wait for completion).
    """

    def __init__(self, index: ServableIndex, *, workers: int = 4,
                 cache_capacity: int = 1024,
                 default_deadline: float | None = None):
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.index = index
        self.planner = QueryPlanner(index)
        self.cache = ResultCache(cache_capacity)
        self.metrics = ServiceMetrics()
        self.default_deadline = default_deadline
        self.workers = workers
        self._slots = threading.BoundedSemaphore(workers)
        # Admission control reads these: searches waiting for a slot or
        # running, and a smoothed execution time to predict how long a newly
        # queued search would wait.
        self._outstanding_lock = threading.Lock()
        self._outstanding = 0
        self._execution_ewma = 0.0
        self._closed = False

    # -- serving ------------------------------------------------------------------------

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Serve one query (a batch of one)."""
        return self.execute_batch([spec])[0]

    def execute_batch(self, specs: Sequence[QuerySpec]) -> List[QueryResult]:
        """Serve a batch on the calling thread, one spec after another.

        Results come back in input order and are identical to what
        :meth:`execute_sequential` produces for the same specs.
        """
        specs = list(specs)
        if not specs:
            return []
        if self._closed:
            raise QueryError("the engine has been closed")
        accepted = time.perf_counter()
        # One umbrella span for the whole serve path: its children (plan,
        # cache_lookup, queue_wait, execute, finalise) account for the
        # stages, while the umbrella itself guarantees the engine's share
        # of a request is fully covered in the trace even between stages.
        with span("serve_batch", queries=len(specs)):
            with span("plan", queries=len(specs)):
                batch = self.planner.plan_batch(specs)
            return [self._serve(planned, accepted) for planned in batch]

    def _serve(self, planned: PlannedQuery, accepted: float) -> QueryResult:
        """One spec of a batch: a cache lookup, else a search."""
        spec = planned.spec
        budget = spec.deadline or self.default_deadline
        left = None if budget is None else budget - (time.perf_counter() - accepted)
        if left is not None and left <= 0:
            return self._unanswered(spec)
        generation = self.index.generation
        with span("cache_lookup"):
            raw = self.cache.get(planned.cache_key, generation)
        if raw is not None:
            with span("finalise"):
                result = QueryResult(spec=spec, cached=True,
                                     matches=self._finalise(planned, raw, generation))
            self._record(result)
            return result
        try:
            execution = self._search(planned, left)
        except Exception as error:  # noqa: BLE001 - surfaced per query
            return self._unanswered(spec, error)
        if execution is None:
            return self._unanswered(spec)
        if execution.degraded is None:
            # A degraded answer is exact only over the partitions that
            # survived — caching it would serve the gap to every later
            # (possibly fail-loud) query under the shared cache key.
            self.cache.put(planned.cache_key, execution.matches, execution.generation)
        if budget is not None and time.perf_counter() - accepted > budget:
            return self._unanswered(spec)
        with span("finalise"):
            result = QueryResult(
                spec=spec,
                matches=self._finalise(planned, execution.matches, execution.generation),
                cached=False,
                latency_seconds=execution.elapsed,
                visited_partitions=execution.visited_partitions,
                cost=execution.cost,
                degraded=execution.degraded,
            )
        self._record(result, visited_partitions=execution.visited_partitions)
        return result

    def execute_sequential(self, specs: Sequence[QuerySpec]) -> List[QueryResult]:
        """The verification/benchmark baseline: one query at a time, no cache.

        Batch execution is required to produce exactly these matches for the
        same specs (deadlines aside).
        """
        results: List[QueryResult] = []
        for spec in specs:
            planned = self.planner.plan(spec)
            execution = self._run(planned)
            results.append(QueryResult(
                spec=spec,
                matches=self._finalise(planned, execution.matches, execution.generation),
                cached=False,
                latency_seconds=execution.elapsed,
                visited_partitions=execution.visited_partitions,
                cost=execution.cost,
                degraded=execution.degraded,
            ))
        return results

    # -- execution ----------------------------------------------------------------------

    @staticmethod
    def _fetch_size(spec: QuerySpec) -> int:
        """How many k-NN candidates to retrieve before the pattern filter."""
        return spec.k if spec.pattern is None else spec.k * PATTERN_OVERSAMPLE

    def _search(self, planned: PlannedQuery,
                wait: Optional[float]) -> Optional[_Execution]:
        """:meth:`_run` in a search slot; ``None`` if none frees within ``wait``.

        Records the wait for the slot as a metric and a ``queue_wait`` span,
        then runs the search inside an ``execute`` span.
        """
        queued = time.perf_counter()
        with self._outstanding_lock:
            self._outstanding += 1
        if not self._slots.acquire(timeout=wait):
            with self._outstanding_lock:
                self._outstanding -= 1
            return None
        started = time.perf_counter()
        self.metrics.record_queue_wait(started - queued)
        record_span("queue_wait", queued, started)
        try:
            with span("execute", kind=planned.spec.kind.value):
                execution = self._run(planned)
                # The cost counters only exist once the search ran, so they
                # are merged into the execute span post-hoc.
                annotate_span(cost=execution.cost.to_dict())
                return execution
        finally:
            self._slots.release()
            elapsed = time.perf_counter() - started
            with self._outstanding_lock:
                self._outstanding -= 1
                # EWMA, not a window: O(1), and 0.2 weights the last ~10
                # searches — fresh enough to track a load shift, smooth
                # enough that one outlier does not whipsaw admission.
                if self._execution_ewma == 0.0:
                    self._execution_ewma = elapsed
                else:
                    self._execution_ewma += 0.2 * (elapsed - self._execution_ewma)

    def _run(self, planned: PlannedQuery) -> _Execution:
        """One index search; deterministic per planned query.

        Returns the raw, cache-stable matches; :meth:`_finalise` applies the
        live overlay and the per-spec post-processing.
        """
        spec = planned.spec
        started = time.perf_counter()
        # allow_partial only reaches indexes that declare they can honour it
        # (the sharded coordinator); a local index has no partitions to lose
        # and keeps its unchanged two-argument search signature.
        partial = spec.allow_partial and getattr(self.index, "supports_partial", False)
        if spec.kind is QueryKind.KNN:
            if partial:
                outcome = self.index.search_k_nearest(
                    planned.point, self._fetch_size(spec), allow_partial=True)
            else:
                outcome = self.index.search_k_nearest(planned.point,
                                                      self._fetch_size(spec))
        else:
            if partial:
                outcome = self.index.search_range(planned.point, spec.radius,
                                                  allow_partial=True)
            else:
                outcome = self.index.search_range(planned.point, spec.radius)
        return _Execution(
            matches=outcome.matches,
            visited_partitions=outcome.visited_partitions,
            elapsed=time.perf_counter() - started,
            generation=outcome.generation,
            cost=outcome.cost,
            degraded=getattr(outcome, "degraded", None),
        )

    def _finalise(self, planned: PlannedQuery, raw: Tuple[SemanticMatch, ...],
                  generation: int) -> Tuple[SemanticMatch, ...]:
        """Overlay live writes onto raw matches, then filter and truncate.

        The overlay can report the matches unsalvageable (``None``) when a
        compaction moved the index past ``generation``; the search is then
        re-run under the new epoch.  Compactions are threshold-driven, so
        consecutive collisions peter out after a retry or two.
        """
        spec = planned.spec
        if spec.kind is QueryKind.KNN:
            parameter: float = self._fetch_size(spec)
        else:
            parameter = spec.radius
        while True:
            merged = self.index.overlay_matches(
                spec.kind.value, planned.point, parameter, raw, generation
            )
            if merged is not None:
                break
            # A compaction raced the read: the cached tree-side matches are
            # unsalvageable and the search re-runs under the new epoch.
            self.metrics.record_overlay_retry()
            execution = self._run(planned)
            raw, generation = execution.matches, execution.generation
            self.cache.put(planned.cache_key, raw, generation)
        matches = list(merged)
        if spec.pattern is not None:
            matches = [match for match in matches if spec.pattern.matches(match.triple)]
        if spec.kind is QueryKind.KNN:
            matches = matches[:spec.k]
        return tuple(matches)

    def _unanswered(self, spec: QuerySpec,
                    error: Optional[BaseException] = None) -> QueryResult:
        """Record and return a query that timed out (no ``error``) or failed."""
        if error is None:
            result = QueryResult(spec=spec, matches=(), cached=False,
                                 timed_out=True, error="deadline exceeded")
        else:
            result = QueryResult(spec=spec, matches=(), cached=False,
                                 error=f"{type(error).__name__}: {error}",
                                 exception=error)
        self._record(result)
        return result

    def _record(self, result: QueryResult,
                visited_partitions: Tuple[str, ...] = ()) -> None:
        self.metrics.record(
            result.spec.kind.value, result.latency_seconds, cached=result.cached,
            timed_out=result.timed_out,
            failed=result.error is not None and not result.timed_out,
            visited_partitions=visited_partitions,
            cost=result.cost if not result.cached else None,
            degraded=result.degraded is not None,
        )

    # -- admission read surface ---------------------------------------------------------

    def outstanding(self) -> int:
        """Searches waiting for a slot or running."""
        with self._outstanding_lock:
            return self._outstanding

    def mean_execution_seconds(self) -> float:
        """Smoothed (EWMA) search execution time; 0.0 until a search has run."""
        with self._outstanding_lock:
            return self._execution_ewma

    def predicted_wait_seconds(self) -> float:
        """Expected wait for a slot for a search queued right now.

        Work-conserving estimate: everything outstanding, spread over the
        ``workers`` slots, at the smoothed per-search execution time.  Crude
        on purpose — admission control needs a stable signal that grows
        linearly with backlog, not an exact schedule.
        """
        with self._outstanding_lock:
            queued_ahead = max(0, self._outstanding - self.workers)
            return (queued_ahead / self.workers) * self._execution_ewma

    # -- observability ------------------------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """Serving metrics merged with the result-cache counters.

        The ``"cache"`` section is :meth:`CacheStats.to_dict` verbatim —
        the same dictionary the server's ``/v1/metrics`` payload publishes.
        """
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats.to_dict()
        snapshot["workers"] = self.workers
        return snapshot

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Refuse queries from now on (the engine holds no threads to stop)."""
        self._closed = True

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryEngine(index={self.index!r}, workers={self.workers}, "
            f"cache={self.cache!r})"
        )
