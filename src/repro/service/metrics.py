"""Serving metrics: QPS, latency percentiles, cache hit rate, partition load.

The engine records one observation per query result.  Every count lives in
one place: an instrument of the :class:`~repro.obs.registry.MetricsRegistry`
each accumulator owns (``.registry`` — a serving shell adopts it, which is
the whole Prometheus exposition of these numbers), and
:meth:`ServiceMetrics.snapshot` reads those same instruments back into the
flat dictionary the ``/v1/metrics`` payload and the benchmarks print.
Counters are individually exact and monotone; a snapshot taken while
queries are in flight may show ``queries`` ahead of ``executed +
served_from_cache`` by the in-flight count.

Latency samples are additionally kept in a bounded deque (most recent
:data:`SERVING_SAMPLE_LIMIT`) — a fixed-bucket histogram cannot reproduce a
percentile — so a long-running service's metrics stay O(1) in memory;
percentiles are therefore over the recent window, which is what a serving
dashboard wants anyway.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import EvaluationError
from repro.obs.registry import MetricsRegistry

__all__ = ["COST_HISTOGRAM_BUCKETS", "IngestMetrics", "ServiceMetrics", "percentile"]

#: Count-scale buckets for per-query work histograms (distance computations
#: per executed query): powers of four from 1 to ~1M cover a handful-of-points
#: toy index through a multi-million-point deployment.
COST_HISTOGRAM_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0,
)

#: Latency and queue-wait samples retained for the ``*_ms`` percentile blocks.
SERVING_SAMPLE_LIMIT = 10_000

#: Compaction durations retained for the ``compaction_ms`` block.
COMPACTION_SAMPLE_LIMIT = 1_000


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Linearly interpolated percentile of a sample set (``fraction`` in [0, 1]).

    Uses the standard "exclusive of bounds" interpolation (numpy's
    ``linear`` method): the rank ``fraction * (n - 1)`` is split into its
    integer neighbours and the two order statistics are blended.  An empty
    sample set yields ``0.0`` — serving dashboards want a zeroed latency
    block before traffic, not an exception — and a single sample is every
    percentile of itself.

    Raises
    ------
    EvaluationError
        If the fraction is out of range.
    """
    if not 0.0 <= fraction <= 1.0:
        raise EvaluationError(f"percentile fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def _latency_block(samples: list) -> Dict[str, float]:
    """The standard ``*_ms`` sub-dictionary over a list of seconds samples."""
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "mean": sum(samples) / len(samples) * 1000.0,
        "p50": percentile(samples, 0.50) * 1000.0,
        "p90": percentile(samples, 0.90) * 1000.0,
        "p99": percentile(samples, 0.99) * 1000.0,
        "max": max(samples) * 1000.0,
    }


class ServiceMetrics:
    """Thread-safe accumulator of per-query serving observations."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._latencies: deque = deque(maxlen=SERVING_SAMPLE_LIMIT)
        self._queue_waits: deque = deque(maxlen=SERVING_SAMPLE_LIMIT)
        self.registry = registry = MetricsRegistry()
        self._by_kind = registry.counter(
            "repro_queries_total", "Queries served, by query kind.", ("kind",))
        self._executed = registry.counter(
            "repro_queries_executed_total",
            "Queries that ran a tree search (cache misses).").labels()
        self._served_from_cache = registry.counter(
            "repro_queries_cached_total", "Queries served from the result cache.").labels()
        self._timeouts = registry.counter(
            "repro_query_timeouts_total", "Queries that missed their deadline.").labels()
        self._errors = registry.counter(
            "repro_query_errors_total", "Queries that failed with an error.").labels()
        self._partition_loads = registry.counter(
            "repro_partition_visits_total", "Tree-search visits, by partition.",
            ("partition",))
        self._cost_totals = registry.counter(
            "repro_query_cost_total",
            "Per-query work counters summed over executed searches, "
            "by cost counter.", ("counter",))
        self._overlay_retries = registry.counter(
            "repro_overlay_retries_total",
            "Overlay rechecks forced by a compaction racing a read.").labels()
        self._degraded = registry.counter(
            "repro_queries_degraded_total",
            "Queries answered partially (allow_partial) after shard failures.").labels()
        self._latency_histogram = registry.histogram(
            "repro_query_latency_seconds",
            "Latency of executed (non-cached) queries, by kind.", ("kind",))
        self._queue_wait_histogram = registry.histogram(
            "repro_queue_wait_seconds",
            "Time an executed query waited for a search slot.").labels()
        self._distance_histogram = registry.histogram(
            "repro_query_distance_computations",
            "Exact distance computations per executed query, by kind.",
            ("kind",), buckets=COST_HISTOGRAM_BUCKETS)

    # -- recording ----------------------------------------------------------------------

    def record(self, kind: str, latency_seconds: float, *, cached: bool,
               timed_out: bool = False, failed: bool = False,
               visited_partitions: Iterable[str] = (),
               cost=None, degraded: bool = False) -> None:
        """Record one served query.

        ``visited_partitions`` are the identities of the partitions the tree
        search entered (empty for cache hits), feeding the per-partition
        load counters.  ``cost`` is the search's
        :class:`~repro.core.cost.SearchCost` (``None`` when no search ran —
        a cache hit); its counters accumulate into
        the per-process work totals and the distance-computation histogram.

        Only successfully *executed* queries contribute a latency sample:
        cache hits would flood the percentiles with ~0 values and mask the
        tree-search distribution, and a timed-out query has no completion
        time (counting it as 0 would make percentiles improve as timeouts
        increase).  Hits and timeouts are still counted in their own
        counters.
        """
        now = self._clock()
        executed_ok = not cached and not timed_out and not failed
        with self._lock:
            if self._started_at is None:
                self._started_at = now
            if executed_ok:
                self._latencies.append(latency_seconds)
        self._by_kind.labels(kind).inc()
        (self._served_from_cache if cached else self._executed).inc()
        if timed_out:
            self._timeouts.inc()
        if failed:
            self._errors.inc()
        if degraded:
            self._degraded.inc()
        if executed_ok:
            self._latency_histogram.labels(kind).observe(latency_seconds)
        for partition_id in visited_partitions:
            self._partition_loads.labels(partition_id).inc()
        if cost is not None:
            for counter_name, value in cost.to_dict().items():
                if value:
                    self._cost_totals.labels(counter_name).inc(value)
            self._distance_histogram.labels(kind).observe(
                float(cost.distance_computations))

    def record_overlay_retry(self) -> None:
        """Record one overlay recheck: a compaction raced the read and the
        cached/stale tree-side matches had to be recomputed."""
        self._overlay_retries.inc()

    def record_queue_wait(self, seconds: float) -> None:
        """Record how long one query waited for a search slot.

        Queue wait is the engine's saturation signal: execute time measures
        the tree search, queue wait measures everything the ``workers``
        slots could not absorb.  Recorded per executed (non-cached) query.
        """
        with self._lock:
            self._queue_waits.append(seconds)
        self._queue_wait_histogram.observe(seconds)

    # -- readings -----------------------------------------------------------------------

    @property
    def queries(self) -> int:
        """Total queries recorded."""
        return sum(self._by_kind.values().values())

    def partition_loads(self) -> Dict[str, int]:
        """Queries served per partition (how often each partition was searched)."""
        return self._partition_loads.by_label()

    def snapshot(self) -> Dict[str, object]:
        """A flat dictionary of every serving metric (for reports and tests)."""
        with self._lock:
            elapsed = (self._clock() - self._started_at) if self._started_at is not None else 0.0
            latencies = list(self._latencies)
            queue_waits = list(self._queue_waits)
        by_kind = self._by_kind.by_label()
        queries = sum(by_kind.values())
        snapshot: Dict[str, object] = {
            "queries": queries,
            "executed": self._executed.get(),
            "served_from_cache": self._served_from_cache.get(),
            "timeouts": self._timeouts.get(),
            "errors": self._errors.get(),
            "degraded": self._degraded.get(),
            "overlay_retries": self._overlay_retries.get(),
            "wall_seconds": elapsed,
            "qps": queries / elapsed if elapsed > 0 else 0.0,
            "queries_by_kind": by_kind,
            "partition_loads": self.partition_loads(),
            "cost": self._cost_totals.by_label(),
        }
        if latencies:
            snapshot["latency_ms"] = _latency_block(latencies)
        snapshot["queue_wait_ms"] = _latency_block(queue_waits)
        return snapshot

    def __repr__(self) -> str:
        return (
            f"ServiceMetrics(queries={self.queries}, executed={self._executed.get()}, "
            f"served_from_cache={self._served_from_cache.get()})"
        )


class IngestMetrics:
    """Thread-safe accumulator for the live-ingestion write path.

    The read path keeps its own :class:`ServiceMetrics`; this class covers
    the other half of a mixed workload: insert throughput (ingest QPS), WAL
    replays at recovery, and compactions (count, points folded, latency).
    Delta size is a gauge owned by the index itself —
    :meth:`repro.ingest.ingesting.IngestingIndex.statistics` merges it into
    this snapshot.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._compaction_seconds: deque = deque(maxlen=COMPACTION_SAMPLE_LIMIT)
        self.registry = registry = MetricsRegistry()
        self._inserts = registry.counter(
            "repro_inserts_total", "Accepted triple inserts.").labels()
        self._replayed = registry.counter(
            "repro_wal_replayed_total", "WAL records replayed at recovery.").labels()
        self._compactions = registry.counter(
            "repro_compactions_total", "Delta-into-tree compactions.").labels()
        self._points_compacted = registry.counter(
            "repro_points_compacted_total",
            "Points folded into the tree by compactions.").labels()
        self._compaction_histogram = registry.histogram(
            "repro_compaction_seconds", "Duration of one compaction.").labels()

    def record_insert(self, count: int = 1) -> None:
        """Record ``count`` accepted inserts."""
        now = self._clock()
        with self._lock:
            if self._started_at is None:
                self._started_at = now
        self._inserts.inc(count)

    def record_replay(self, count: int) -> None:
        """Record ``count`` WAL records replayed at recovery."""
        self._replayed.inc(count)

    def record_compaction(self, points: int, seconds: float) -> None:
        """Record one delta-into-tree fold of ``points`` points."""
        with self._lock:
            self._compaction_seconds.append(seconds)
        self._compactions.inc()
        self._points_compacted.inc(points)
        self._compaction_histogram.observe(seconds)

    @property
    def inserts(self) -> int:
        """Total inserts recorded."""
        return self._inserts.get()

    @property
    def compactions(self) -> int:
        """Total compactions recorded."""
        return self._compactions.get()

    def snapshot(self) -> Dict[str, object]:
        """A flat dictionary of every ingest metric (for reports and tests)."""
        with self._lock:
            elapsed = (self._clock() - self._started_at) if self._started_at is not None else 0.0
            samples = list(self._compaction_seconds)
        inserts = self.inserts
        snapshot: Dict[str, object] = {
            "inserts": inserts,
            "replayed": self._replayed.get(),
            "ingest_wall_seconds": elapsed,
            "ingest_qps": inserts / elapsed if elapsed > 0 else 0.0,
            "compactions": self.compactions,
            "points_compacted": self._points_compacted.get(),
        }
        if samples:
            snapshot["compaction_ms"] = {
                "mean": sum(samples) / len(samples) * 1000.0,
                "max": max(samples) * 1000.0,
                "last": samples[-1] * 1000.0,
            }
        return snapshot

    def __repr__(self) -> str:
        return (
            f"IngestMetrics(inserts={self.inserts}, "
            f"compactions={self.compactions}, replayed={self._replayed.get()})"
        )
