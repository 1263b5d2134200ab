"""The HTTP shard transport: partition scans over real sockets, fault-tolerantly.

:class:`HttpShardTransport` implements the
:class:`~repro.cluster.transport.PartitionTransport` protocol against a
:class:`~repro.coordinator.topology.ShardTopology` of live shard servers,
with one :class:`~repro.workloads.ServerClient` per *replica* (a
persistent socket per calling thread, framed by ``protocol.py``) and that
replica's row table.  A scan response names its
matches as ``[row, distance]`` pairs under a ``rows_id``; the transport
fetches the table those rows index (``GET /v1/shard/rows``) once and keeps
it while every response's ``rows_id`` matches — a mismatch refetches once,
a second one fails the scan, so a row is never resolved against another
snapshot's table.

Fault tolerance (see ``docs/robustness.md``):

* **Per-replica circuit breakers** — every replica carries a
  :class:`~repro.coordinator.replica.CircuitBreaker`; consecutive failures
  trip it open, after which scans skip the replica instantly instead of
  eating a connect timeout, and a half-open probe closes it once the
  backend answers again.
* **Failover retry** — a failed scan attempt is retried on the next
  healthy replica (scans are idempotent reads) with capped exponential
  backoff + deterministic jitter between attempts
  (:class:`~repro.coordinator.replica.BackoffPolicy`).
* **Fault injection (opt-in)** — a :class:`~repro.faults.FaultPlan`
  consulted before every attempt (operation ``"scan"``, target
  ``"partition@url"``), so chaos tests can break precisely this layer.

Only when *every* replica of a partition has failed does the scan raise
:class:`~repro.errors.ShardError` naming the partition and each replica's
failure, for the scatter layer's structured partial-failure report.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.transport import PartitionScan
from repro.core.cost import SearchCost
from repro.core.knn import Neighbour
from repro.core.point import LabeledPoint
from repro.coordinator.replica import BackoffPolicy, CircuitBreaker, ReplicaSet, ReplicaState
from repro.coordinator.topology import ShardTopology
from repro.errors import ServerError, ShardError
from repro.faults import FaultPlan, InjectedFault
from repro.io.serialization import triple_from_dict
from repro.obs.registry import MetricFamily, MetricsRegistry
from repro.workloads.http_client import ServerClient

__all__ = ["HttpShardTransport"]

#: A replica's row table as last fetched: ``(rows_id, points in row order)``.
RowTable = Tuple[str, Tuple[LabeledPoint, ...]]

#: ``(key in failover_stats(), metric name, help)`` of the events counted here.
_FAILOVER_COUNTERS = (
    ("retries", "repro_shard_retries_total",
     "Shard scan attempts retried after a replica failure, by partition."),
    ("failovers", "repro_shard_failovers_total",
     "Scan retries that moved to a different replica, by partition."),
    ("circuit_shed", "repro_shard_circuit_shed_total",
     "Scan attempts skipped because a replica circuit was open."),
)

#: ``(reader, key, metric name, help)`` of what the breakers and the
#: connections count themselves: read at scrape time.
_COMPUTED_COUNTERS = (
    ("failover_stats", "circuit_opens", "repro_shard_circuit_opens_total",
     "Replica circuit-breaker trips, by partition."),
    ("client_stats", "requests", "repro_transport_requests_total",
     "Shard HTTP requests issued by the coordinator, by partition."),
    ("client_stats", "connections_opened", "repro_transport_connections_opened_total",
     "TCP connections the shard transport opened, by partition."),
    ("client_stats", "requests_reused", "repro_transport_requests_reused_total",
     "Shard requests served over a reused keep-alive socket."),
    ("client_stats", "stale_retries", "repro_transport_stale_retries_total",
     "Shard requests retried once after a stale keep-alive socket."),
)


class HttpShardTransport:
    """Scatter-gather scans against per-partition shard replica sets.

    Parameters
    ----------
    topology:
        Which replicas serve which partition (first listed = preferred).
    timeout:
        Per-attempt HTTP timeout in seconds.
    failure_threshold / reset_timeout:
        Per-replica circuit-breaker tuning: consecutive failures that trip
        a replica's circuit open, and how long it sheds before a half-open
        probe (see :class:`CircuitBreaker`).
    backoff:
        The :class:`BackoffPolicy` applied between failover attempts
        (default: 50 ms base, doubling, 2 s cap, 50 % jitter).
    fault_plan:
        Optional :class:`FaultPlan` injected into every scan attempt.
    clock / sleep:
        Injectable time sources so tests can run the retry schedule
        without real waiting.
    """

    def __init__(self, topology: ShardTopology, *, timeout: float = 10.0,
                 failure_threshold: int = 3, reset_timeout: float = 5.0,
                 backoff: Optional[BackoffPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.topology = topology
        self.timeout = timeout
        self.backoff = backoff or BackoffPolicy()
        self.fault_plan = fault_plan
        self._sleep = sleep
        self._replica_sets: Dict[str, ReplicaSet] = {
            partition_id: ReplicaSet(
                partition_id, topology.replicas_of(partition_id),
                breaker_factory=lambda: CircuitBreaker(
                    failure_threshold=failure_threshold,
                    reset_timeout=reset_timeout, clock=clock,
                ),
            )
            for partition_id in topology.partition_ids
        }
        self._connections: Dict[Tuple[str, str], ServerClient] = {
            (partition_id, replica.url): ServerClient(replica.url, timeout=timeout)
            for partition_id, replica_set in self._replica_sets.items()
            for replica in replica_set.replicas
        }
        self._tables: Dict[Tuple[str, str], RowTable] = {}
        self._create_metrics()

    # -- PartitionTransport -------------------------------------------------------------

    def partition_ids(self) -> Tuple[str, ...]:
        return self.topology.partition_ids

    def scan_knn(self, partition_id: str, query: LabeledPoint, k: int) -> PartitionScan:
        return self._scan(partition_id, "shard_knn", "/v1/shard/knn",
                          {"coordinates": list(query.coordinates), "k": k})

    def scan_range(self, partition_id: str, query: LabeledPoint,
                   radius: float) -> PartitionScan:
        return self._scan(partition_id, "shard_range", "/v1/shard/range",
                          {"coordinates": list(query.coordinates), "radius": radius})

    def close(self) -> None:
        # Every thread's sockets, not the caller's: the persistent ones live
        # in the scatter pool's workers, not in the thread tearing this down.
        for connection in self._connections.values():
            connection.close()

    # -- health / stats read surfaces ---------------------------------------------------

    def _create_metrics(self) -> None:
        """The transport's series, every partition present from the start
        (a coordinator adopts :attr:`registry`)."""
        self.registry = registry = MetricsRegistry()
        self._failover = {
            key: registry.counter(name, documentation, ("partition",))
            for key, name, documentation in _FAILOVER_COUNTERS
        }
        # Scans that ran out of replicas are reported in the JSON payload
        # only: the same instrument, left out of the registry.
        self._failover["exhausted"] = MetricFamily(
            "repro_shard_exhausted_total", "counter", "", ("partition",), threading.Lock())
        for family in self._failover.values():
            for partition_id in self._replica_sets:
                family.labels(partition_id)
        for reader, key, name, documentation in _COMPUTED_COUNTERS:
            registry.counter(name, documentation, ("partition",)).set_callback(
                lambda read=getattr(self, reader), key=key: {
                    (partition_id,): stats.get(key, 0)
                    for partition_id, stats in read().items()})

    def replica_health(self) -> Dict[str, Dict[str, object]]:
        """Per-partition replica health for ``/v1/healthz`` and ``/v1/topology``.

        ``{partition: {replicas, healthy, open, half_open, detail: [...]}}``
        where ``detail`` lists each replica's URL, breaker state and
        success/failure counters.
        """
        health: Dict[str, Dict[str, object]] = {}
        for partition_id, replica_set in sorted(self._replica_sets.items()):
            entry = replica_set.health()
            entry["detail"] = [replica.to_dict() for replica in replica_set.replicas]
            health[partition_id] = entry
        return health

    def failover_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-partition failover counters (retries, failovers, circuit opens)."""
        counters = {key: family.by_label() for key, family in self._failover.items()}
        stats: Dict[str, Dict[str, int]] = {}
        for partition_id, replica_set in self._replica_sets.items():
            stats[partition_id] = {
                name: counters[name][partition_id] for name in counters
            }
            stats[partition_id]["circuit_opens"] = sum(
                replica.breaker.opens for replica in replica_set.replicas
            )
        return stats

    def client_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-partition transport counters, summed over the replicas.

        Surfaces whether the fan-out actually rides keep-alive sockets: a
        healthy steady state shows ``requests_reused`` tracking ``requests``
        and ``connections_opened`` stuck near the thread count.
        """
        totals: Dict[str, Counter] = {}
        for (partition_id, _url), connection in self._connections.items():
            totals.setdefault(partition_id, Counter()).update(connection.stats())
        return {partition_id: dict(counter)
                for partition_id, counter in totals.items()}

    def _count(self, name: str, partition_id: str) -> None:
        self._failover[name].labels(partition_id).inc()

    # -- the scan retry loop ------------------------------------------------------------

    def _scan(self, partition_id: str, operation: str, path: str,
              request: Dict[str, Any]) -> PartitionScan:
        """One partition scan: try replicas in health order until one answers.

        Scans are idempotent reads, so failing over to the next replica is
        always safe.  Failures accumulate into one ShardError raised only
        when every candidate has been tried.
        """
        replica_set = self._replica_sets.get(partition_id)
        if replica_set is None:
            raise ShardError(
                f"no shard serves partition {partition_id!r} "
                f"(topology covers: {', '.join(self.topology.partition_ids)})",
                failed={partition_id: "not in topology"},
            )
        started = time.perf_counter()
        body = json.dumps(request).encode("utf-8")
        candidates = replica_set.candidates()
        failures: List[str] = []
        attempt = 0
        index = 0
        while index < len(candidates):
            replica = candidates[index]
            if not replica.breaker.allow():
                # Open circuit (or a half-open probe already in flight):
                # shed instantly and move on — no connect timeout burned.
                self._count("circuit_shed", partition_id)
                failures.append(f"{replica.url}: circuit open")
                index += 1
                continue
            if attempt > 0:
                self._count("retries", partition_id)
                if index > 0:
                    self._count("failovers", partition_id)
                self._sleep(self.backoff.delay(attempt - 1))
            try:
                payload, neighbours = self._attempt(
                    partition_id, operation, path, body, replica)
            except (ServerError, InjectedFault) as error:
                failures.append(f"{replica.url}: {error}")
                attempt += 1
                index += 1
                continue
            return PartitionScan(
                partition_id=partition_id,
                neighbours=neighbours,
                nodes_visited=int(payload.get("nodes_visited", 0)),
                points_examined=int(payload.get("points_examined", 0)),
                # The *coordinator-observed* round trip (network hop and
                # retries included), matching what SimulatedClusterTransport
                # reports — the per-shard latency gauges must point an operator
                # at a slow shard path, not just at its server-side scan time
                # (which the shard still reports in its own payload as latency_ms).
                elapsed_seconds=time.perf_counter() - started,
                cost=SearchCost.from_dict(payload.get("cost")),
            )
        self._count("exhausted", partition_id)
        raise ShardError(
            f"{operation} on partition {partition_id} failed on every replica "
            f"[{'; '.join(failures)}]",
            failed={partition_id: "; ".join(failures)},
        )

    def _attempt(self, partition_id: str, operation: str, path: str, body: bytes,
                 replica: ReplicaState) -> Tuple[Dict[str, Any], Tuple[Neighbour, ...]]:
        """One scan against one replica, with breaker + fault bookkeeping.

        Returns the response payload and its rows resolved through the
        replica's row table, fetched here when none is held or the
        response's ``rows_id`` names another — so a failed fetch counts
        against the replica like a failed scan.
        """
        if self.fault_plan is not None:
            fault = self.fault_plan.decide("scan", f"{partition_id}@{replica.url}")
            if fault is not None:
                if fault.latency:
                    self._sleep(fault.latency)
                if fault.kind == "error":
                    replica.failures += 1
                    replica.breaker.record_failure()
                    raise InjectedFault(
                        f"injected connection reset talking to {replica.url}")
                if fault.kind == "http_5xx":
                    replica.failures += 1
                    replica.breaker.record_failure()
                    raise InjectedFault(
                        f"injected HTTP {fault.status} from {replica.url}")
        key = (partition_id, replica.url)
        connection = self._connections[key]
        try:
            raw, response = connection.request_bytes("POST", path, body)
            try:
                payload = json.loads(raw)
            except ValueError as error:
                # Whatever answered is not a shard (wrong port, a proxy).
                raise ServerError(f"non-JSON response from {replica.url}: {raw[:120]!r}",
                                  status=response.status) from error
            rows_id = payload.get("rows_id")
            table = self._tables.get(key)
            if table is None or table[0] != rows_id:
                published = connection.request("GET", "/v1/shard/rows")
                table = self._tables[key] = (published["rows_id"], tuple(
                    LabeledPoint.of(row["coordinates"], label=triple_from_dict(row["triple"]))
                    for row in published["rows"]))
        except ServerError as error:
            if 400 <= error.status < 500:
                # The replica answered: it is healthy, the *request* is bad.
                # Fail the scan without poisoning the breaker or failing
                # over — every replica would reject it identically.
                replica.breaker.record_success()
                raise ShardError(
                    f"{operation} on partition {partition_id} via {replica.url} "
                    f"rejected: {error}",
                    failed={partition_id: str(error)},
                ) from error
            replica.failures += 1
            replica.breaker.record_failure()
            raise
        replica.successes += 1
        replica.breaker.record_success()
        served = payload.get("partition_id")
        if served != partition_id:
            # A misconfigured topology (shard booted with the wrong --shard)
            # would silently double-count one partition and drop another.
            raise ShardError(
                f"topology mismatch: a replica of partition {partition_id!r} "
                f"serves partition {served!r}",
                failed={partition_id: f"shard serves {served!r}"},
            )
        if table[0] != rows_id:
            # Refetched and still not the table this scan indexes: resolving
            # its rows could name the wrong triples, so the scan fails instead.
            raise ShardError(
                f"{operation} on partition {partition_id} via {replica.url} answered "
                f"from row table {rows_id!r} but the replica publishes {table[0]!r}",
                failed={partition_id: f"row table {rows_id!r} != published {table[0]!r}"},
            )
        points = table[1]
        return payload, tuple(Neighbour(points[row], distance)
                              for row, distance in payload["rows"])

    def __repr__(self) -> str:
        return (f"HttpShardTransport(partitions={len(self._replica_sets)}, "
                f"replicas={len(self._connections)}, timeout={self.timeout})")
