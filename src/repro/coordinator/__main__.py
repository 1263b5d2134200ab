"""``python -m repro.coordinator`` — the scatter-gather front end.

Boot sequence:

1. the checkpoint snapshot is parsed once; the semantic distance is rebuilt
   from its persisted vocabulary hints (or harvested) and the full index is
   loaded — the coordinator needs the FastMap space (query embedding), the
   routing tree (partition pruning) and the provenance map;
2. the shard topology is read from ``--shards`` and each shard's
   ``/v1/shard`` is probed to confirm it serves the partition the topology
   claims; every data-bearing partition must be covered;
3. a :class:`~repro.coordinator.app.CoordinatorApp` (query engine over the
   :class:`~repro.coordinator.sharded.ShardedIndex`) is bound to the HTTP
   transport (:class:`~repro.server.http.SemTreeServer`);
4. SIGINT/SIGTERM drain in-flight queries and close the shard connections.

Example::

    python -m repro.server --snapshot snap.json --shard P0 --port 9000 &
    python -m repro.server --snapshot snap.json --shard P1 --port 9001 &
    python -m repro.coordinator --snapshot snap.json \
        --shards "P0=http://127.0.0.1:9000,P1=http://127.0.0.1:9001" --port 8080

See ``docs/cluster.md`` for the full deployment story.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro.coordinator.app import CoordinatorApp
from repro.coordinator.sharded import ShardedIndex
from repro.coordinator.topology import ShardTopology
from repro.coordinator.transport import HttpShardTransport
from repro.errors import ShardError
from repro.obs.logging import configure_logging
from repro.server.bootstrap import derive_distance_from_state
from repro.server.cli import (add_serving_options, bind_server, engine_options,
                              extra_actors, fault_plan_from, serve_until_signalled)
from repro.server.http import SemTreeServer
from repro.service.snapshot import load_index_payload, read_snapshot_payload
from repro.workloads.http_client import ServerClient

__all__ = ["build_parser", "build_coordinator", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.coordinator",
        description="Serve a SemTree index by scattering partition scans "
                    "across per-partition shard servers.",
    )
    parser.add_argument("--snapshot", required=True,
                        help="checkpoint snapshot (the same one the shards booted "
                             "from); provides embedding, routing tree and provenance")
    parser.add_argument("--shards", required=True,
                        help="topology: P0=http://host:port,P1=... (replicas "
                             "of one partition separated by |)")
    parser.add_argument("--shard-timeout", type=float, default=10.0,
                        help="per-scan HTTP timeout in seconds")
    parser.add_argument("--failure-threshold", type=int, default=3,
                        help="consecutive scan failures that open a replica's "
                             "circuit breaker")
    parser.add_argument("--reset-timeout", type=float, default=5.0,
                        help="seconds an open circuit waits before letting one "
                             "probe scan through")
    add_serving_options(parser)
    return parser


def _check_shards(topology: ShardTopology, timeout: float) -> None:
    """Probe every replica once: reachable, and serving the claimed partition."""
    for partition_id in topology.partition_ids:
        for url in topology.replicas_of(partition_id):
            with ServerClient(url, timeout=timeout) as client:
                client.wait_ready()
                info = client.shard_info()
            served = info.get("partition_id")
            if served != partition_id:
                raise ShardError(
                    f"topology mismatch: {url} serves partition {served!r}, "
                    f"the topology maps it to {partition_id!r}",
                    failed={partition_id: f"shard serves {served!r}"},
                )


def build_coordinator(argv: Optional[Sequence[str]] = None,
                      ) -> Tuple[SemTreeServer, argparse.Namespace]:
    """Parse arguments, load the snapshot, return a bound (not serving) server."""
    args = build_parser().parse_args(argv)
    topology = ShardTopology.parse(args.shards)
    _check_shards(topology, args.shard_timeout)

    payload = read_snapshot_payload(args.snapshot)
    distance, _ = derive_distance_from_state(payload, extra_actors=extra_actors(args))
    base = load_index_payload(payload, distance)

    # One plan poisons both sides the coordinator owns: its scan transport
    # ("scan" operations) and its own HTTP surface ("handle" operations).
    fault_plan = fault_plan_from(args)
    transport = HttpShardTransport(
        topology, timeout=args.shard_timeout,
        failure_threshold=args.failure_threshold,
        reset_timeout=args.reset_timeout,
        fault_plan=fault_plan,
    )
    index = ShardedIndex(base, transport)
    app = CoordinatorApp(index, **engine_options(args))
    # No wire cache: shard data changes under the coordinator without any
    # local epoch signal, so CoordinatorApp names no cacheable routes.
    return bind_server(app, args, fault_plan), args


def main(argv: Optional[Sequence[str]] = None) -> int:
    server, args = build_coordinator(argv)
    # Configured here, not in build_coordinator, so embedding the builder
    # (tests, notebooks) never rewires the process's logging.
    configure_logging(level=30 if args.quiet else 20)
    app = server.app
    tree = app.index.base.tree
    print(f"coordinating {len(app.index.base)} points over "
          f"{len(app.index.transport.partition_ids())} shards "
          f"({tree.partition_count} partitions in the snapshot)", flush=True)
    return serve_until_signalled(server)


if __name__ == "__main__":
    sys.exit(main())
