"""The sharded index: scatter-gather serving over a partition transport.

:class:`ShardedIndex` is the coordinator's replacement for a local
:class:`~repro.core.semtree.SemTreeIndex`: it implements the same serving
protocol (:class:`~repro.service.planner.ServableIndex` — ``generation`` /
``embed_query`` / ``search_k_nearest`` / ``search_range`` /
``overlay_matches``), so a :class:`~repro.service.engine.QueryEngine` and
therefore the whole HTTP front end serve it unchanged — result caching,
batching, deadlines and metrics included.

What changes is *where the tree search runs*.  The coordinator keeps the
full snapshot in memory for the parts only it needs — the FastMap space
(query embedding), the routing structure (partition pruning) and the
provenance map (match dressing) — but every leaf scan is delegated through
a :class:`~repro.cluster.transport.PartitionTransport`:

* **k-NN**: every data-bearing partition is scanned concurrently (the
  guided backward visit cannot be replicated without sequential round
  trips; full fan-out buys parallelism at the price of scanning partitions
  the sequential search would have pruned).  The gather folds per-partition
  top-k lists through the paper's :class:`~repro.core.knn.ResultSet` — the
  same radius-tightening merge the sequential search applies, in partition
  order — so the merged top-k is exactly the sequential result.
* **range**: the routing tree prunes first — only partitions the
  sequential navigation rule (descend both children when
  ``|P[SI] - Sv| < D``) would enter are scanned — then results are merged
  and sorted by distance.

Per-shard latency and fan-out counters are kept per scan and surfaced
through :meth:`ShardedIndex.statistics` into the coordinator's
``/v1/metrics``.

Failure semantics: by default a scan that fails (shard down, timeout,
topology mismatch) fails the *query* with a structured
:class:`~repro.errors.ShardError` naming every failed partition and every
partition that had already answered — never a *silent* partial answer,
which would violate the exactness contract.  Queries may opt in to
graceful degradation (``allow_partial=True``): the gather then folds the
surviving partitions' scans and attaches a structured ``degraded`` marker
(partitions answered / partitions missed with reasons) to the outcome, so
the caller knows exactly how much of the fan-out is reflected in the
answer.  A degraded answer is still exact *over the partitions that
answered*; only when every targeted partition fails does a partial query
raise.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.transport import PartitionScan, PartitionTransport
from repro.core.cost import SearchCost
from repro.core.distributed import range_children
from repro.core.knn import ResultSet
from repro.core.node import Node, RemoteChild
from repro.core.point import LabeledPoint
from repro.core.semtree import SearchOutcome, SemanticMatch, SemTreeIndex
from repro.errors import ShardError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import annotate_span, capture_context, resume_context, span
from repro.rdf.triple import Triple
from repro.service.metrics import percentile

__all__ = ["ShardedIndex"]


#: Latency samples retained per shard for the percentile gauges; bounded so
#: a long-running coordinator's metrics stay O(1) in memory and the
#: percentile sort stays cheap (same pattern as ServingMetrics).
LATENCY_SAMPLE_LIMIT = 4096

#: Pool threads scanning partitions for all queries together.
SCATTER_WORKERS = 8


def _latency_block(samples: List[float]) -> Dict[str, float]:
    """One shard's ``latency_ms`` over its retained round-trip samples (seconds)."""
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "mean": sum(samples) / len(samples) * 1000.0,
        "p50": percentile(samples, 0.50) * 1000.0,
        "p99": percentile(samples, 0.99) * 1000.0,
        "max": max(samples) * 1000.0,
    }


class ShardedIndex:
    """Scatter-gather serving over one snapshot and a partition transport.

    Parameters
    ----------
    base:
        The coordinator's in-memory copy of the snapshot (embedding space,
        routing tree, provenance).  It must be the same snapshot the shards
        booted from: the exactness guarantee is "identical to running the
        sequential search over ``base``".
    transport:
        How partition scans reach the data — HTTP shard servers in
        production (:class:`~repro.coordinator.transport.HttpShardTransport`),
        the simulated cluster in tests
        (:class:`~repro.cluster.transport.SimulatedClusterTransport`).

    Each query submits its scans but one to the :data:`SCATTER_WORKERS`
    threads all queries share, runs that one itself and gathers in
    partition order.
    """

    def __init__(self, base: SemTreeIndex, transport: PartitionTransport):
        self.base = base
        self.transport = transport
        self._data_partitions = tuple(
            partition.partition_id for partition in base.tree.partitions
            if partition.point_count > 0
        )
        missing = sorted(set(self._data_partitions) - set(transport.partition_ids()))
        if missing:
            raise ShardError(
                "the transport does not cover every data-bearing partition "
                f"of the snapshot; missing: {', '.join(missing)}",
                failed={partition_id: "not in topology" for partition_id in missing},
            )
        self._executor = ThreadPoolExecutor(
            max_workers=SCATTER_WORKERS, thread_name_prefix="semtree-scatter"
        )
        # Guards the per-shard sample windows only; the counts are instruments.
        self._stats_lock = threading.Lock()
        self._latencies: Dict[str, deque] = {
            partition_id: deque(maxlen=LATENCY_SAMPLE_LIMIT)
            for partition_id in self._data_partitions}
        self.registry = registry = MetricsRegistry()
        registry.gauge(
            "repro_shard_partitions", "Data-bearing partitions behind the coordinator.",
        ).set(float(len(self._data_partitions)))
        self._queries = registry.counter(
            "repro_scatter_queries_total", "Queries scattered across the shard fleet.",
        ).labels()
        self._shard_scans = registry.counter(
            "repro_shard_scans_total", "Partition scans issued, by partition.",
            ("partition",))
        self._shard_failures = registry.counter(
            "repro_shard_scan_failures_total", "Failed partition scans, by partition.",
            ("partition",))
        self._degraded = registry.counter(
            "repro_degraded_queries_total",
            "Queries answered partially (allow_partial) after shard failures.",
        ).labels()
        self._roundtrip_histogram = registry.histogram(
            "repro_shard_roundtrip_seconds",
            "Coordinator-observed shard scan round trip, by partition.",
            ("partition",))
        # HTTP deployments only (the simulated transport has no sockets, no
        # replicas): the transport's own per-partition series.
        transport_registry = getattr(transport, "registry", None)
        if transport_registry is not None:
            registry.adopt(transport_registry)
        self._closed = False

    # -- the serving protocol (ServableIndex) -------------------------------------------

    @property
    def generation(self) -> int:
        """The snapshot's generation; static — the sharded view is read-only."""
        return self.base.generation

    def embed_query(self, triple: Triple) -> LabeledPoint:
        """Project a query triple with the coordinator's FastMap space."""
        return self.base.embed_query(triple)

    #: Duck-typed capability flag the query engine checks before passing
    #: ``allow_partial`` through — a local SemTreeIndex has no partitions to
    #: lose, so the flag is a harmless no-op there.
    supports_partial = True

    def search_k_nearest(self, point: LabeledPoint, k: int, *,
                         allow_partial: bool = False) -> SearchOutcome:
        """Scatter a k-NN scan to every data partition; gather through ``Rs``.

        The gather offers every per-partition candidate to one bounded
        :class:`ResultSet` in partition order — each insertion tightens the
        radius exactly like the sequential merge, and tie-breaking keeps the
        earliest offer, mirroring the sequential first-come-first-retained
        rule.
        """
        targets = self._data_partitions
        scans, degraded = self._scatter(
            targets, lambda pid: self.transport.scan_knn(pid, point, k),
            allow_partial=allow_partial,
        )
        with span("gather", partitions=len(targets)):
            results = ResultSet(k)
            nodes = points = 0
            total_cost = SearchCost()
            for scan in scans:
                nodes += scan.nodes_visited
                points += scan.points_examined
                total_cost.add(scan.cost)
                for neighbour in scan.neighbours:
                    results.offer(neighbour.point, neighbour.distance)
            matches = tuple(self.base.to_match(n) for n in results.neighbours())
        return SearchOutcome(
            matches=matches,
            visited_partitions=tuple(scan.partition_id for scan in scans),
            nodes_visited=nodes,
            points_examined=points,
            generation=self.base.generation,
            cost=total_cost,
            degraded=degraded,
        )

    def search_range(self, point: LabeledPoint, radius: float, *,
                     allow_partial: bool = False) -> SearchOutcome:
        """Prune partitions with the routing tree, scatter, merge and sort."""
        targets = self._range_targets(point, radius)
        scans, degraded = self._scatter(
            targets, lambda pid: self.transport.scan_range(pid, point, radius),
            allow_partial=allow_partial,
        )
        with span("gather", partitions=len(targets)):
            gathered = []
            nodes = points = 0
            total_cost = SearchCost()
            for scan in scans:
                nodes += scan.nodes_visited
                points += scan.points_examined
                total_cost.add(scan.cost)
                gathered.extend(scan.neighbours)
            gathered.sort(key=lambda neighbour: neighbour.distance)
            matches = tuple(self.base.to_match(n) for n in gathered)
        return SearchOutcome(
            matches=matches,
            visited_partitions=tuple(scan.partition_id for scan in scans),
            nodes_visited=nodes,
            points_examined=points,
            generation=self.base.generation,
            cost=total_cost,
            degraded=degraded,
        )

    def overlay_matches(self, kind: str, point: LabeledPoint, parameter: float,
                        matches: Tuple[SemanticMatch, ...],
                        generation: int) -> Optional[Tuple[SemanticMatch, ...]]:
        """The sharded view is read-only: matches are always current."""
        return tuple(matches)

    # -- scatter ------------------------------------------------------------------------

    def _scatter(self, targets: Tuple[str, ...],
                 scan: Callable[[str], PartitionScan], *,
                 allow_partial: bool = False,
                 ) -> Tuple[List[PartitionScan], Optional[Dict[str, object]]]:
        """Run one scan per target concurrently — all but the last on the
        scatter pool, the last on the calling thread — and gather in
        partition order.

        Returns the surviving scans plus the ``degraded`` marker (``None``
        when every partition answered).  Fail-loud by default: any failed
        partition fails the query with a :class:`ShardError` whose details
        name the failed and the completed partitions.  With
        ``allow_partial`` the failures are folded into the marker instead —
        unless *every* targeted partition failed, in which case there is no
        answer to degrade to and the error propagates regardless.
        """
        def traced_scan(partition_id: str) -> PartitionScan:
            with span("shard_scan", partition=partition_id):
                result = scan(partition_id)
                annotate_span(cost=result.cost.to_dict())
                return result

        def pooled_scan(partition_id: str) -> PartitionScan:
            # Scatter-pool threads carry the submitting request's trace, so
            # per-shard round trips land in the right span tree.
            with resume_context(trace_context):
                return traced_scan(partition_id)

        scans: Dict[str, PartitionScan] = {}
        failed: Dict[str, str] = {}

        def settle(partition_id: str, outcome: Callable[..., PartitionScan],
                   *arguments: str) -> None:
            try:
                scans[partition_id] = outcome(*arguments)
            except ShardError as error:
                failed[partition_id] = str(error)
            except Exception as error:  # noqa: BLE001 - reported per partition
                failed[partition_id] = f"{type(error).__name__}: {error}"

        with span("scatter", partitions=len(targets)):
            trace_context = capture_context()
            futures = [(partition_id, self._executor.submit(pooled_scan, partition_id))
                       for partition_id in targets[:-1]]
            # The last target is scanned here, by the thread that would only
            # wait otherwise: one hand-off fewer per query, none for a
            # one-partition range.
            if targets:
                settle(targets[-1], traced_scan, targets[-1])
            for partition_id, future in futures:
                settle(partition_id, future.result)
        degraded_query = bool(failed) and allow_partial and bool(scans)
        self._record(scans, failed, degraded=degraded_query)
        if failed and not degraded_query:
            completed = sorted(scans)
            raise ShardError(
                f"{len(failed)} of {len(targets)} partition scans failed "
                f"[{'; '.join(f'{pid}: {reason}' for pid, reason in sorted(failed.items()))}]"
                f" (completed: {', '.join(completed) or 'none'}); the query "
                "cannot be answered exactly without them",
                failed=failed, completed=completed,
            )
        ordered = [scans[partition_id] for partition_id in targets
                   if partition_id in scans]
        if not degraded_query:
            return ordered, None
        return ordered, {
            "answered": sorted(scans),
            "missed": {pid: failed[pid] for pid in sorted(failed)},
        }

    def _record(self, scans: Dict[str, PartitionScan], failed: Dict[str, str],
                *, degraded: bool = False) -> None:
        self._queries.inc()
        if degraded:
            self._degraded.inc()
        with self._stats_lock:
            for partition_id, scan in scans.items():
                self._latencies[partition_id].append(scan.elapsed_seconds)
        # ``labels`` alone creates the series: a shard's scans and failures
        # appear together, the other at 0, from its first scan either way.
        for partition_id, scan in scans.items():
            self._shard_scans.labels(partition_id).inc()
            self._shard_failures.labels(partition_id)
            self._roundtrip_histogram.labels(partition_id).observe(scan.elapsed_seconds)
        for partition_id in failed:
            self._shard_failures.labels(partition_id).inc()
            self._shard_scans.labels(partition_id)

    # -- range partition pruning --------------------------------------------------------

    def _range_targets(self, point: LabeledPoint, radius: float) -> Tuple[str, ...]:
        """Partitions the sequential range navigation would enter.

        Walks the coordinator's routing structure applying the paper's rule
        (both children when the query ball straddles the splitting plane),
        crossing remote links locally.  Partitions holding no points are
        skipped — the sequential search enters them only to route, and a
        shard scan of an empty subtree returns nothing by construction.
        """
        tree = self.base.tree
        ordered: List[str] = []
        seen = set()

        def enter(partition_id: str) -> Optional[Node]:
            if partition_id not in seen:
                seen.add(partition_id)
                ordered.append(partition_id)
                return tree.partition(partition_id).root
            return None

        stack: List[Node] = []
        root = enter(tree.ROOT_PARTITION_ID)
        if root is not None:
            stack.append(root)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            for child in range_children(node, point, radius):
                if isinstance(child, RemoteChild):
                    crossed = enter(child.partition_id)
                    if crossed is not None:
                        stack.append(crossed)
                elif isinstance(child, Node):
                    stack.append(child)
        data_bearing = set(self._data_partitions)
        return tuple(pid for pid in ordered if pid in data_bearing)

    # -- observability ------------------------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """Scatter-gather counters: totals, fan-out, per-shard latency."""
        # Copy the windows under the lock every scatter's ``_record`` needs,
        # sort them for the percentiles after releasing it.
        with self._stats_lock:
            windows = {partition_id: list(window)
                       for partition_id, window in self._latencies.items()}
        shard_scans = self._shard_scans.by_label()
        shard_failures = self._shard_failures.by_label()
        queries = self._queries.get()
        scans = sum(shard_scans.values()) + sum(shard_failures.values())
        statistics: Dict[str, object] = {
            "partitions": len(self._data_partitions),
            "queries": queries,
            "scans": scans,
            "degraded_queries": self._degraded.get(),
            "fan_out_mean": (scans / queries) if queries else 0.0,
            "per_shard": {
                partition_id: {
                    "scans": scans_of_shard,
                    "failures": shard_failures.get(partition_id, 0),
                    "latency_ms": _latency_block(windows[partition_id]),
                }
                for partition_id, scans_of_shard in sorted(shard_scans.items())
            },
        }
        failover_stats = getattr(self.transport, "failover_stats", None)
        if failover_stats is not None:
            statistics["failover"] = failover_stats()
        return statistics

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut the scatter pool down and release the transport's connections."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self.transport.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(partitions={len(self._data_partitions)}, "
            f"transport={self.transport!r})"
        )
