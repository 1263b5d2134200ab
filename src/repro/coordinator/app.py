"""The coordinator application: endpoint logic of the scatter-gather front end.

:class:`CoordinatorApp` is the sharded twin of
:class:`~repro.server.app.ServerApp`: the same query endpoints
(``POST /v1/knn`` / ``/v1/range``, single and batched, with the same wire
schemas), served by the same :class:`~repro.service.engine.QueryEngine` —
batches, result cache, deadlines and serving metrics work unchanged —
except the engine searches a :class:`~repro.coordinator.sharded.ShardedIndex`
that fans every tree scan out to shard servers.

The coordinator is read-only (``/v1/insert`` does not exist here): inserts
go to a full server, which checkpoints, and the shards re-boot from the new
snapshot.  See ``docs/cluster.md`` for the deployment story and the failure
semantics (a lost shard fails queries with a structured 502-style error
rather than returning silently-partial answers).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import ShardError
from repro.io.serialization import json_ready
from repro.server.shell import EngineShell

__all__ = ["CoordinatorApp"]


class CoordinatorApp(EngineShell):
    """Endpoint logic over one sharded index.

    Parameters
    ----------
    index:
        The :class:`~repro.coordinator.sharded.ShardedIndex` to serve.

    Remaining keyword arguments are :class:`~repro.server.shell.EngineShell`'s,
    with the same semantics as on a full server.  Each query scatters from
    the thread that serves its request, and ``workers`` bounds how many
    scatter at once; a batch scatters one query after another.  The scatter
    pool inside the sharded index bounds the total scan concurrency, and
    admission bounds outstanding scatters.
    """

    role = "coordinator"

    def _bind_registry(self) -> None:
        super()._bind_registry()
        self.registry.adopt(self.index.registry)

    def get_routes(self) -> Dict[str, Callable[[Dict[str, str]], Any]]:
        return {**super().get_routes(), "/v1/topology": self.topology}

    def _check_single_result(self, result) -> None:
        if isinstance(result.exception, ShardError):
            # A lost shard on a single query is a backend failure, not a
            # result: surface it as HTTP 502 with the structured
            # failed/completed details, so status-checking clients and load
            # balancers never mistake it for a successful empty answer.
            # (Batched responses keep per-result error fields — one dead
            # shard must not discard the batch's healthy answers.)
            raise result.exception

    # -- observability endpoints --------------------------------------------------------

    def health(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the fan-out vitals.

        When the transport tracks replica circuit breakers, the payload
        carries per-partition replica health and the overall ``status``
        downgrades to ``"degraded"`` while any partition has no replica
        with a closed circuit — a load balancer can pull a coordinator
        whose answers would start failing (or going partial), without
        waiting for a query to hit the dead partition.
        """
        self._count("healthz")
        status = "closing" if self.closed else "ok"
        payload: Dict[str, Any] = {
            "status": status,
            "role": self.role,
            "points": len(self.index.base),
            "generation": self.index.generation,
            "shards": len(self.index.transport.partition_ids()),
            "uptime_seconds": self.uptime_seconds,
        }
        replica_health = getattr(self.index.transport, "replica_health", None)
        if callable(replica_health):
            health = replica_health()
            payload["partitions"] = health
            if status == "ok" and any(
                    entry.get("healthy", 0) == 0 for entry in health.values()):
                payload["status"] = "degraded"
        return json_ready(payload)

    def topology(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/topology`` — which replicas serve which partition."""
        self._check_open()
        self._count("topology")
        transport = self.index.transport
        topology = getattr(transport, "topology", None)
        shards = getattr(topology, "shards", None)
        tree = self.index.base.tree
        payload: Dict[str, Any] = {
            "partitions": list(transport.partition_ids()),
            "shards": dict(shards) if shards is not None else {},
            "points_per_partition": {
                partition.partition_id: partition.point_count
                for partition in tree.partitions
            },
        }
        replicas_of = getattr(topology, "replicas_of", None)
        if callable(replicas_of):
            payload["replicas_per_partition"] = {
                partition_id: len(replicas_of(partition_id))
                for partition_id in transport.partition_ids()
            }
        return json_ready(payload)

    def _tier_metrics(self) -> Dict[str, Any]:
        """``shards`` replaces a full server's ``ingest`` / ``index`` sections
        with fan-out counts and per-shard latency."""
        return {
            "shards": self.index.statistics(),
            "coordinator": self._process_metrics(
                points=len(self.index.base), generation=self.index.generation),
        }

    # -- lifecycle ----------------------------------------------------------------------

    def _teardown(self, checkpoint: Optional[bool]) -> None:
        """Close the engine, shut the scatter pool down."""
        self.engine.close()
        self.index.close()

    def __repr__(self) -> str:
        return f"CoordinatorApp(index={self.index!r}, closed={self.closed})"
