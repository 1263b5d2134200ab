"""``python -m repro.server`` — boot a SemTree server from durable state.

Boot sequence (full server, the default):

1. the checkpoint snapshot is parsed once; the semantic distance is rebuilt
   from its persisted vocabulary hints (or harvested from the stored
   triples for older snapshots) — :func:`~repro.server.bootstrap.recover_index`;
2. the tree is restored from the snapshot and the WAL records after its
   ``wal_seq`` are replayed into the delta;
3. a :class:`~repro.server.app.ServerApp` (query engine; it folds a
   replayed delta already at ``--compaction-threshold``, and later the
   insert request that crosses it folds) is bound to the HTTP transport
   (:class:`~repro.server.http.SemTreeServer`);
4. on SIGINT/SIGTERM the server stops accepting, drains in-flight queries,
   folds the delta, writes a checkpoint back to ``--snapshot`` and
   truncates the WAL (disable with ``--no-checkpoint-on-exit``).

Shard mode (``--shard P3``) boots the same process as a *partition shard*
instead: only partition ``P3``'s subtree is loaded from the snapshot and
the server exposes the raw scan endpoints ``/v1/shard/knn`` /
``/v1/shard/range`` a :mod:`repro.coordinator` front end fans out to.  A
shard holds no delta, so boot refuses a WAL whose tail is newer than the
snapshot — checkpoint first, then launch the shards.

Examples::

    python -m repro.server --snapshot snap.json --wal wal.jsonl --port 8080
    python -m repro.server --snapshot snap.json --shard P1 --port 9001

See ``docs/server.md`` for the endpoint reference and ``docs/cluster.md``
for the sharded deployment topology.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro.errors import IndexError_
from repro.obs.logging import configure_logging
from repro.server.app import ServerApp
from repro.server.bootstrap import load_shard, recover_index, wal_tail_seq
from repro.server.cli import (add_serving_options, bind_server, engine_options,
                              extra_actors, fault_plan_from, serve_until_signalled,
                              shell_options)
from repro.server.http import SemTreeServer
from repro.server.shard import ShardApp

__all__ = ["build_parser", "build_server", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a SemTree index over HTTP, recovering from a "
                    "checkpoint snapshot + write-ahead-log tail.",
    )
    parser.add_argument("--snapshot", required=True,
                        help="checkpoint snapshot to boot from (and to write the "
                             "shutdown checkpoint back to)")
    parser.add_argument("--wal", default=None,
                        help="write-ahead log; its tail (records after the snapshot's "
                             "wal_seq) is replayed on boot, and live inserts append to "
                             "it (required unless --shard)")
    parser.add_argument("--shard", default=None, metavar="PARTITION_ID",
                        help="serve one partition of the snapshot as a read-only "
                             "shard (/v1/shard/knn, /v1/shard/range) instead of the "
                             "full query API")
    parser.add_argument("--no-wire-cache", action="store_true",
                        help="disable the loop-side response byte cache (full "
                             "servers only; shards and coordinators never cache "
                             "wire bytes)")
    parser.add_argument("--compaction-threshold", type=int, default=256,
                        help="delta size at which the inserting request folds "
                             "the delta into the tree")
    parser.add_argument("--no-checkpoint-on-exit", action="store_true",
                        help="skip the shutdown checkpoint (the WAL alone stays "
                             "the recovery source)")
    add_serving_options(parser)
    return parser


def build_server(argv: Optional[Sequence[str]] = None,
                 ) -> Tuple[SemTreeServer, argparse.Namespace]:
    """Parse arguments, recover the index (or load the shard), return a bound server."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shard is not None:
        return bind_server(_shard_app(args), args, fault_plan_from(args)), args
    if args.wal is None:
        parser.error("--wal is required (unless booting a --shard)")
    index = recover_index(
        args.snapshot, args.wal, extra_actors=extra_actors(args),
        compaction_threshold=args.compaction_threshold,
    )
    app = ServerApp(
        index,
        checkpoint_path=None if args.no_checkpoint_on_exit else args.snapshot,
        **engine_options(args),
    )
    server = bind_server(app, args, fault_plan_from(args),
                         wire_cache=not args.no_wire_cache)
    return server, args


def _shard_app(args: argparse.Namespace) -> ShardApp:
    """Load one partition of the snapshot as a read-only shard."""
    tail = wal_tail_seq(args.wal)
    boot = load_shard(args.snapshot, args.shard)
    if tail > boot.wal_seq:
        raise IndexError_(
            f"the WAL tail reaches seq {tail} but the snapshot only covers "
            f"seq {boot.wal_seq}: a shard has no delta to replay into — "
            "checkpoint the full server first, then boot the shards"
        )
    return ShardApp(boot, **shell_options(args))


def main(argv: Optional[Sequence[str]] = None) -> int:
    server, args = build_server(argv)
    # Structured JSON logs on stderr: access lines and warnings.
    # --quiet keeps warnings only (matching the old silent default).
    # Configured here, not in build_server, so embedding the builder (tests,
    # notebooks) never rewires the process's logging.
    configure_logging(level=30 if args.quiet else 20)
    app = server.app
    if args.shard is not None:
        print(f"shard {app.partition_id}: {app.boot.points} points "
              f"(generation {app.boot.generation}, "
              f"snapshot partitions {', '.join(app.boot.partition_ids)})", flush=True)
    else:
        index = app.index
        replayed = index.statistics()["replayed"]
        print(f"recovered {len(index)} points "
              f"(generation {index.generation}, applied_seq {index.applied_seq}, "
              f"replayed {replayed} WAL records)", flush=True)
    return serve_until_signalled(server, args.snapshot)


if __name__ == "__main__":
    sys.exit(main())
