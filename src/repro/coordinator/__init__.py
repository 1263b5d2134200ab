"""The scatter-gather coordinator: real sharded serving of a SemTree index.

PRs 1–4 built a single-process serving stack; the distributed tree itself
still ran on a simulated cluster.  This package makes distribution real:

* :mod:`repro.coordinator.topology` — :class:`ShardTopology`, the
  ``partition_id → shard URL`` map operators deploy against;
* :mod:`repro.coordinator.transport` — :class:`HttpShardTransport`, the
  :class:`~repro.cluster.transport.PartitionTransport` implementation that
  POSTs partition scans to ``python -m repro.server --shard`` processes
  over persistent connections and resolves their row-id answers through
  each replica's row table;
* :mod:`repro.coordinator.sharded` — :class:`ShardedIndex`, the servable
  index whose searches scatter across shards and gather through the
  paper's result-set merge (bit-identical to the sequential search);
* :mod:`repro.coordinator.app` — :class:`CoordinatorApp`, the HTTP
  endpoint logic (same wire API as a full server, read-only);
* :mod:`repro.coordinator.launcher` — subprocess orchestration for
  examples, benchmarks and tests;
* :mod:`repro.coordinator.__main__` — the ``python -m repro.coordinator``
  CLI.

See ``docs/cluster.md`` for the deployment topology, the exactness
guarantee and the failure semantics.
"""

from repro.coordinator.app import CoordinatorApp
from repro.coordinator.launcher import (ManagedProcess, launch_coordinator,
                                        launch_replica_fleet, launch_shard,
                                        launch_shards, shutdown_processes)
from repro.coordinator.sharded import ShardedIndex
from repro.coordinator.topology import ShardTopology
from repro.coordinator.transport import HttpShardTransport

__all__ = [
    "CoordinatorApp",
    "ShardedIndex",
    "ShardTopology",
    "HttpShardTransport",
    "ManagedProcess",
    "launch_shard",
    "launch_shards",
    "launch_replica_fleet",
    "launch_coordinator",
    "shutdown_processes",
]
