"""Shard server mode: one process serving raw scans of one partition.

In the real deployment story (see ``docs/cluster.md``) each partition of
the distributed SemTree is served by its own process.  A shard is
deliberately the dumbest tier of the stack: it holds one partition's
subtree (booted from a checkpoint snapshot by
:func:`~repro.server.bootstrap.load_shard`), and answers whole-partition
scans — :func:`~repro.core.distributed.scan_subtree_knn` /
``scan_subtree_range`` over embedded coordinates the coordinator ships.  No
semantic distance, no FastMap space, no query cache, no WAL: exactness and
caching live in the coordinator, durability in the checkpoint the shard
booted from.

A scan answers in *row ids*: the shard numbers its partition's points once
at boot, publishes that table (coordinates + lossless triple per row) at
``GET /v1/shard/rows`` under a ``rows_id`` computed from its content, and
each scan response carries ``[row, distance]`` pairs plus the ``rows_id``
they index — the coordinator fetches the table once per replica and
resolves rows locally, so the per-scan message carries no triples.

:class:`ShardApp` is a :class:`~repro.server.shell.ServiceShell` like the
other tiers, so the same :class:`~repro.server.http.SemTreeServer` binds it.
"""

from __future__ import annotations

import json
import time
from binascii import crc32
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro.core.distributed import scan_subtree_knn, scan_subtree_range
from repro.core.knn import KSearchState
from repro.core.node import Node
from repro.core.point import LabeledPoint
from repro.errors import SchemaError
from repro.obs.tracing import annotate_span, span
from repro.server.bootstrap import ShardBoot
from repro.server.schemas import (parse_shard_scan_request, render_partition_row,
                                  render_partition_scan)
from repro.server.shell import ServiceShell
from repro.service.planner import QueryKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.semtree import SemTreeIndex

__all__ = ["ShardApp"]


def _number_rows(boot: ShardBoot) -> Tuple[List[LabeledPoint], str]:
    """The partition's points in row order, and the ``rows_id`` naming that table.

    The id is the snapshot generation, the row count and a CRC-32 over every
    rendered row: replicas booted from one snapshot agree on it, a reboot
    from another snapshot of the same partition id does not.  (``binascii``
    because it is loaded already; ``hashlib`` costs each process 3 MB.)
    """
    rows: List[LabeledPoint] = []
    checksum = 0
    stack = [boot.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            for point in node.bucket:
                rows.append(point)
                checksum = crc32(
                    json.dumps(render_partition_row(point)).encode("utf-8"), checksum)
            continue
        stack.extend(child for child in (node.right, node.left)
                     if isinstance(child, Node))
    return rows, f"{boot.generation}-{len(rows)}-{checksum:08x}"


class ShardApp(ServiceShell):
    """Endpoint logic of one partition shard.

    Parameters
    ----------
    boot:
        The partition subtree and its metadata, from
        :func:`~repro.server.bootstrap.load_shard` (CLI path) or
        :meth:`from_index` (in-process tests and benchmarks).

    Remaining keyword arguments are :class:`~repro.server.shell.ServiceShell`'s.
    """

    role = "shard"

    def __init__(self, boot: ShardBoot, **shell_options):
        self.boot = boot
        self.partition_id = boot.partition_id
        self.root = boot.root
        self.config = boot.config
        self._rows, self.rows_id = _number_rows(boot)
        # Keyed by identity: scans hand back the very objects the leaves hold.
        self._row_of = {id(point): row for row, point in enumerate(self._rows)}
        super().__init__(**shell_options)

    def _bind_registry(self) -> None:
        self.registry.gauge(
            "repro_shard_points", "Points in this shard's partition subtree.",
        ).labels().set(float(self.boot.points))
        self._nodes_visited = self.registry.counter(
            "repro_shard_nodes_visited_total", "Tree nodes visited by partition scans.",
        ).labels()
        self._points_examined = self.registry.counter(
            "repro_shard_points_examined_total", "Points examined by partition scans.",
        ).labels()
        self._scan_histogram = self.registry.histogram(
            "repro_shard_scan_seconds", "Duration of one partition scan, by kind.",
            ("kind",),
        )
        self._cost_totals = self.registry.counter(
            "repro_query_cost_total",
            "Search cost counters accumulated by partition scans.",
            ("counter",),
        )

    @classmethod
    def from_index(cls, index: "SemTreeIndex", partition_id: str) -> "ShardApp":
        """Build a shard over one partition of an in-process built index.

        The subtree is shared, not copied: the caller must not mutate the
        index while the shard serves (exactly the contract a snapshot-booted
        shard gets for free).
        """
        tree = index.tree
        partition = tree.partition(partition_id)
        boot = ShardBoot(
            partition_id=partition_id,
            root=partition.root,
            config=tree.config,
            points=partition.point_count,
            generation=index.generation,
            wal_seq=0,
            partition_ids=tuple(p.partition_id for p in tree.partitions),
        )
        return cls(boot)

    # -- routing ------------------------------------------------------------------------

    def post_routes(self) -> Dict[str, Callable[[Any], Dict[str, Any]]]:
        return {
            "/v1/shard/knn": self.handle_shard_knn,
            "/v1/shard/range": self.handle_shard_range,
        }

    def get_routes(self) -> Dict[str, Callable[[Dict[str, str]], Any]]:
        return {**super().get_routes(), "/v1/shard": self.shard_info,
                "/v1/shard/rows": self.shard_rows}

    # -- scan endpoints -----------------------------------------------------------------

    def handle_shard_knn(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/shard/knn`` — partition-local top-k for raw coordinates."""
        return self._handle_scan(QueryKind.KNN, body, "shard_knn")

    def handle_shard_range(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/shard/range`` — partition-local ball scan for raw coordinates."""
        return self._handle_scan(QueryKind.RANGE, body, "shard_range")

    def _handle_scan(self, kind: QueryKind, body: Any, endpoint: str) -> Dict[str, Any]:
        self._check_open()
        coordinates, parameter = parse_shard_scan_request(body, kind)
        if len(coordinates) != self.config.dimensions:
            raise SchemaError(
                f"expected {self.config.dimensions} coordinates "
                f"(the partition's embedded space), got {len(coordinates)}",
                field="coordinates",
            )
        query = LabeledPoint.of(coordinates)
        started = time.perf_counter()
        with span("shard_scan", partition=self.partition_id, kind=kind.value):
            if kind is QueryKind.KNN:
                state = KSearchState(query=query, k=int(parameter))
                scan_subtree_knn(self.root, state, self.config.scan_kernel)
                neighbours = state.results.neighbours()
            else:
                # Deferred import keeps module import light; RangeSearchState
                # lives beside the traversal it belongs to.
                from repro.core.distributed import RangeSearchState

                state = RangeSearchState(query, parameter)
                scan_subtree_range(self.root, state, self.config.scan_kernel)
                neighbours = state.sorted_results()
            cost_counters = state.cost.to_dict()
            annotate_span(cost=cost_counters)
        elapsed = time.perf_counter() - started
        self._scan_histogram.labels(kind.value).observe(elapsed)
        self._count(endpoint)
        self._nodes_visited.inc(state.nodes_visited)
        self._points_examined.inc(state.points_examined)
        for counter_name, value in cost_counters.items():
            if value:
                self._cost_totals.labels(counter_name).inc(value)
        row_of = self._row_of
        return render_partition_scan(
            self.partition_id, self.rows_id,
            [[row_of[id(neighbour.point)], neighbour.distance]
             for neighbour in neighbours],
            nodes_visited=state.nodes_visited,
            points_examined=state.points_examined,
            elapsed_seconds=elapsed,
            cost=state.cost,
        )

    # -- observability endpoints --------------------------------------------------------

    def health(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus which partition this shard owns."""
        self._count("healthz")
        return {
            "status": "closing" if self.closed else "ok",
            "role": self.role,
            "partition_id": self.partition_id,
            "points": self.boot.points,
            "generation": self.boot.generation,
            "uptime_seconds": self.uptime_seconds,
        }

    def shard_info(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/shard`` — what is being served: partition, shape, kernel."""
        self._check_open()
        self._count("shard")
        return {
            "partition_id": self.partition_id,
            "points": self.boot.points,
            "generation": self.boot.generation,
            "wal_seq": self.boot.wal_seq,
            "snapshot_partitions": list(self.boot.partition_ids),
            "dimensions": self.config.dimensions,
            "kernel": self.config.scan_kernel,
        }

    def shard_rows(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/shard/rows`` — the row table scan responses index into."""
        self._check_open()
        self._count("shard_rows")
        return {
            "partition_id": self.partition_id,
            "rows_id": self.rows_id,
            "rows": [render_partition_row(point) for point in self._rows],
        }

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` — the shard metrics payload (one ``shard`` section)."""
        requests = self.request_counts()
        return {"shard": {
            "partition_id": self.partition_id,
            "points": self.boot.points,
            "scans": requests.get("shard_knn", 0) + requests.get("shard_range", 0),
            "nodes_visited": self._nodes_visited.get(),
            "points_examined": self._points_examined.get(),
            # The scan-duration histogram's ``_sum``, over both kinds.
            "scan_seconds": sum(
                (total for _, total, _ in self._scan_histogram.values().values()), 0.0),
            "cost": self._cost_totals.by_label(),
            "requests": requests,
            "uptime_seconds": self.uptime_seconds,
        }}

    def __repr__(self) -> str:
        return (
            f"ShardApp(partition={self.partition_id!r}, points={self.boot.points}, "
            f"closed={self.closed})"
        )
