"""The concurrent query-serving engine above :class:`SemTreeIndex`.

:class:`QueryEngine` is the runtime the ROADMAP's "serve heavy traffic"
north star asks for: it accepts single and batched k-NN / range /
pattern-filtered queries, deduplicates and caches them, executes distinct
cache misses concurrently over a thread pool, and enforces per-query
deadlines.

Design notes
------------
* **Planning is single-threaded.**  Embedding a query triple exercises the
  semantic-distance caches (taxonomy depth/ancestor memos), so the planner
  runs on the calling thread; worker threads only traverse the tree, which
  is read-only at query time.
* **Batches are deterministic.**  A batch's results are guaranteed
  identical to sequential execution: the tree search is deterministic, each
  distinct query runs exactly once, and results are fanned back out in
  input order (:meth:`QueryEngine.execute_sequential` exists as the
  verification baseline).
* **Deadlines bound waiting, not work.**  Python threads cannot be killed,
  so a query that misses its deadline is reported as timed out immediately
  while the worker finishes in the background; its late result is still
  cached for subsequent queries (tagged with the generation the search
  observed, so it can never go stale unnoticed).  In-batch duplicates share
  one execution but keep their own deadlines: each is judged against the
  worker's completion timestamp.
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

import functools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.cost import SearchCost
from repro.core.semtree import SemanticMatch
from repro.errors import QueryError
from repro.obs.tracing import (annotate_span, capture_context, record_span,
                               resume_context, span)
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

    ``cached`` is True when the result was served without running a tree
    search for this spec — a result-cache hit or an in-batch duplicate of
    another query.  ``exception`` carries the original exception behind a
    non-empty ``error`` string (when the failure was an exception rather
    than a deadline), so front ends can map typed failures — e.g. a
    coordinator's :class:`~repro.errors.ShardError` — onto transport
    semantics instead of parsing the message.
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
    #: search ran for this spec — a cache hit or an in-batch duplicate).
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
    ``completed_at`` is stamped by the worker the moment the search finishes
    so the collector can judge deadlines against the true completion time,
    not against when it happened to read the future.
    """

    matches: Tuple[SemanticMatch, ...]
    visited_partitions: Tuple[str, ...]
    nodes_visited: int
    points_examined: int
    elapsed: float
    completed_at: float
    generation: int
    cost: SearchCost = field(default_factory=SearchCost)
    degraded: Optional[Dict[str, object]] = None


class QueryEngine:
    """Concurrent serving engine over one built :class:`SemTreeIndex`.

    Parameters
    ----------
    index:
        The built index to serve (building it is the caller's job).
    workers:
        Worker-thread count for batch execution.
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
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="semtree-query"
        )
        # Admission control reads these: searches submitted but not yet
        # finished (queue depth + in-flight), and a smoothed execution time
        # to predict how long a newly queued search would wait.
        self._outstanding_lock = threading.Lock()
        self._outstanding = 0
        self._execution_ewma = 0.0
        self._closed = False

    # -- serving ------------------------------------------------------------------------

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Serve one query (a batch of one)."""
        return self.execute_batch([spec])[0]

    def execute_batch(self, specs: Sequence[QuerySpec]) -> List[QueryResult]:
        """Serve a batch: dedupe, consult the cache, run misses concurrently.

        Results come back in input order and are identical to what
        :meth:`execute_sequential` produces for the same specs.
        """
        specs = list(specs)
        if not specs:
            return []
        if self._closed:
            raise QueryError("the engine has been closed")
        # One umbrella span for the whole serve path: its children (plan,
        # cache_lookup, queue_wait, execute, finalise) account for the
        # stages, while the umbrella itself guarantees the engine's share
        # of a request is fully covered in the trace even between stages.
        with span("serve_batch", queries=len(specs)):
            return self._serve_batch(specs)

    def _serve_batch(self, specs: List[QuerySpec]) -> List[QueryResult]:
        with span("plan", queries=len(specs)):
            unique, assignment = self.planner.plan_batch(specs)
        generation = self.index.generation

        # Deduplicated queries run once but every duplicate keeps its own
        # deadline: the collector waits out the most generous budget among
        # the duplicates, then judges each input spec against the worker's
        # completion timestamp.
        budgets: Dict[int, List[Optional[float]]] = {}
        for spec, position in zip(specs, assignment):
            budgets.setdefault(position, []).append(spec.deadline or self.default_deadline)

        def wait_budget(position: int) -> Optional[float]:
            deadlines = budgets[position]
            return None if any(d is None for d in deadlines) else max(deadlines)

        # Phase 1: resolve each distinct query against the cache; submit the
        # misses to the pool so they run while we collect in order.
        outcomes: List[Optional[Tuple[str, object]]] = []
        pending: Dict[int, Tuple[Future, float]] = {}
        trace_context = capture_context()
        # One span for the whole lookup/submit phase, not one per query:
        # span() is cheap when untraced, but not per-query-on-the-warm-path
        # cheap (a cache hit serves in single-digit microseconds).
        with span("cache_lookup", queries=len(unique)):
            for position, planned in enumerate(unique):
                cached_matches = self.cache.get(planned.cache_key, generation)
                if cached_matches is not None:
                    outcomes.append(("hit", cached_matches))
                else:
                    outcomes.append(None)
                    submitted_at = time.perf_counter()
                    with self._outstanding_lock:
                        self._outstanding += 1
                    pending[position] = (
                        self._executor.submit(self._traced_run, planned,
                                              trace_context, submitted_at),
                        submitted_at,
                    )

        # Phase 2: gather the in-flight searches, enforcing deadlines.
        for position, (future, submitted_at) in pending.items():
            planned = unique[position]
            budget = wait_budget(position)
            try:
                if budget is None:
                    execution = future.result()
                else:
                    remaining = budget - (time.perf_counter() - submitted_at)
                    execution = future.result(timeout=max(remaining, 0.0))
            except FutureTimeoutError:
                outcomes[position] = ("timeout", None)
                # The worker cannot be killed; let its (still valid) late
                # result warm the cache for subsequent queries.
                future.add_done_callback(functools.partial(
                    self._cache_late, planned.cache_key
                ))
                continue
            except Exception as error:  # noqa: BLE001 - surfaced per query
                outcomes[position] = ("error", error)
                continue
            if execution.degraded is None:
                # A degraded answer is exact only over the partitions that
                # survived — caching it would serve the gap to every later
                # (possibly fail-loud) query under the shared cache key.
                self.cache.put(planned.cache_key, execution.matches,
                               execution.generation)
            outcomes[position] = ("executed", (execution,
                                               execution.completed_at - submitted_at))

        # Phase 3: fan the distinct outcomes back out to input order.
        first_input_of: Dict[int, int] = {}
        for input_index, position in enumerate(assignment):
            first_input_of.setdefault(position, input_index)

        served: Dict[int, Tuple[SemanticMatch, ...]] = {}

        def serve(position: int, raw: Tuple[SemanticMatch, ...],
                  raw_generation: int) -> Tuple[SemanticMatch, ...]:
            # Overlay + post-processing once per distinct query; duplicates
            # share the cache key, hence the pattern and parameters too.
            if position not in served:
                served[position] = self._finalise(unique[position], raw,
                                                  raw_generation)
            return served[position]

        # One span for the whole fan-out/finalise phase — like the lookup
        # phase, per-query spans would dominate the cost of serving a hit.
        results: List[QueryResult] = []
        with span("finalise", queries=len(specs)):
            for input_index, (spec, position) in enumerate(zip(specs, assignment)):
                outcome = outcomes[position]
                assert outcome is not None
                tag, value = outcome
                is_first = first_input_of[position] == input_index
                if tag == "hit":
                    result = QueryResult(spec=spec,
                                         matches=serve(position, tuple(value), generation),
                                         cached=True)
                    self._record(result)
                elif tag == "executed":
                    execution, completion_seconds = value
                    own_deadline = spec.deadline or self.default_deadline
                    if own_deadline is not None and completion_seconds > own_deadline:
                        # The shared execution finished, but not within THIS
                        # duplicate's budget.
                        result = QueryResult(spec=spec, matches=(), cached=False,
                                             timed_out=True, error="deadline exceeded")
                        self._record(result)
                    else:
                        result = QueryResult(
                            spec=spec,
                            matches=serve(position, execution.matches, execution.generation),
                            cached=not is_first,
                            latency_seconds=execution.elapsed if is_first else 0.0,
                            visited_partitions=execution.visited_partitions,
                            cost=execution.cost if is_first else None,
                            degraded=execution.degraded,
                        )
                        self._record(
                            result,
                            visited_partitions=execution.visited_partitions if is_first else (),
                        )
                elif tag == "timeout":
                    result = QueryResult(spec=spec, matches=(), cached=False,
                                         timed_out=True, error="deadline exceeded")
                    self._record(result)
                else:
                    result = QueryResult(spec=spec, matches=(), cached=False,
                                         error=f"{type(value).__name__}: {value}",
                                         exception=value)
                    self._record(result)
                results.append(result)
        return results

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

    def _traced_run(self, planned: PlannedQuery,
                    trace_context, submitted_at: float) -> _Execution:
        """Worker-thread wrapper around :meth:`_run` with observability.

        Records the queue wait (submission until a worker picked the task
        up) as a metric and — when the submitter carried a trace — as a
        span, then runs the search inside an ``execute`` span attached to
        the submitter's span tree.
        """
        started = time.perf_counter()
        self.metrics.record_queue_wait(started - submitted_at)
        try:
            with resume_context(trace_context):
                record_span("queue_wait", submitted_at, started)
                with span("execute", kind=planned.spec.kind.value):
                    execution = self._run(planned)
                    # The cost counters only exist once the search ran, so they
                    # are merged into the execute span post-hoc.
                    annotate_span(cost=execution.cost.to_dict())
                    return execution
        finally:
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
        """One index search (worker-thread body); deterministic per planned query.

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
        completed_at = time.perf_counter()
        return _Execution(
            matches=outcome.matches,
            visited_partitions=outcome.visited_partitions,
            nodes_visited=outcome.nodes_visited,
            points_examined=outcome.points_examined,
            elapsed=completed_at - started,
            completed_at=completed_at,
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

    def _cache_late(self, key: Tuple[Hashable, ...], future: Future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        execution = future.result()
        if execution.degraded is not None:
            return
        self.cache.put(key, execution.matches, execution.generation)

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
        """Searches submitted to the pool but not yet finished (queued + running)."""
        with self._outstanding_lock:
            return self._outstanding

    def mean_execution_seconds(self) -> float:
        """Smoothed (EWMA) search execution time; 0.0 until a search has run."""
        with self._outstanding_lock:
            return self._execution_ewma

    def predicted_wait_seconds(self) -> float:
        """Expected queue wait for a search submitted right now.

        Work-conserving estimate: everything outstanding, spread over the
        worker pool, at the smoothed per-search execution time.  Crude on
        purpose — admission control needs a stable signal that grows
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

    def close(self, *, wait: bool = True) -> None:
        """Shut the worker pool down; the engine refuses queries afterwards."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryEngine(index={self.index!r}, workers={self.workers}, "
            f"cache={self.cache!r})"
        )
