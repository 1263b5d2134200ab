"""What the serving CLIs share: one option group, one serve loop.

``python -m repro.server`` (full server and ``--shard`` mode) and
``python -m repro.coordinator`` put the same transport in front of the same
service shell, so the flags that configure those two layers are declared
once (:func:`add_serving_options`) and turned into constructor arguments
once (:func:`shell_options` / :func:`engine_options` / :func:`bind_server`);
each CLI adds only the flags of its own tier.
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import Any, Dict, List, Optional

from repro.faults import FaultPlan
from repro.obs.profile import SamplingProfiler
from repro.server.http import SemTreeServer

__all__ = ["add_serving_options", "extra_actors", "fault_plan_from",
           "shell_options", "engine_options", "bind_server",
           "serve_until_signalled"]


def add_serving_options(parser: argparse.ArgumentParser) -> None:
    """Declare the transport / engine / observability / admission flags."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port (0 picks an ephemeral port)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="drop keep-alive connections idle this many "
                             "seconds (default: the request timeout)")
    parser.add_argument("--workers", type=int, default=4,
                        help="most searches the query engine runs at once "
                             "(queries past it wait for a slot)")
    parser.add_argument("--cache-capacity", type=int, default=1024,
                        help="result-cache entries")
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="per-query deadline in seconds applied when a request "
                             "carries none (default: wait for completion)")
    parser.add_argument("--actors", default="",
                        help="comma-separated extra actor names beyond those "
                             "stored in the snapshot (names future inserts may "
                             "mention; a coordinator must be given the same "
                             "list as the server that wrote the snapshot)")
    parser.add_argument("--profile", action="store_true",
                        help="run a continuous sampling profiler; read it back "
                             "at GET /v1/debug/profile")
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        help="admission control: reject /v1/knn and /v1/range "
                             "requests with 503 + Retry-After once this many "
                             "searches are outstanding in the engine, or this "
                             "many of those query requests are already held by "
                             "the transport's worker pool (default: unbounded)")
    parser.add_argument("--faults", default=None,
                        help="fault-injection plan: JSON text or a path to a "
                             "JSON file (default: $REPRO_FAULTS; testing only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request log lines")


def extra_actors(args: argparse.Namespace) -> List[str]:
    """The ``--actors`` list, split and stripped."""
    return [name.strip() for name in args.actors.split(",") if name.strip()]


def fault_plan_from(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The ``--faults`` plan when given, else whatever $REPRO_FAULTS says."""
    if args.faults is not None:
        return FaultPlan.from_source(args.faults)
    return FaultPlan.from_env()


def shell_options(args: argparse.Namespace) -> Dict[str, Any]:
    """:class:`~repro.server.shell.ServiceShell` keyword arguments."""
    return {
        "profiler": SamplingProfiler().start() if args.profile else None,
    }


def engine_options(args: argparse.Namespace) -> Dict[str, Any]:
    """:class:`~repro.server.shell.EngineShell` keyword arguments."""
    return {
        "workers": args.workers,
        "cache_capacity": args.cache_capacity,
        "default_deadline": args.default_deadline,
        "max_queue_depth": args.max_queue_depth,
        **shell_options(args),
    }


def bind_server(app, args: argparse.Namespace, fault_plan: Optional[FaultPlan],
                *, wire_cache: bool = False) -> SemTreeServer:
    """Bind ``app`` to the address and transport options the flags chose."""
    return SemTreeServer(
        app, host=args.host, port=args.port, fault_plan=fault_plan,
        idle_timeout=args.idle_timeout, wire_cache=wire_cache,
    )


def serve_until_signalled(server: SemTreeServer,
                          checkpoint_path: Optional[str] = None) -> int:
    """Serve until SIGINT/SIGTERM, then drain, close and say what happened.

    ``checkpoint_path`` is only named in the farewell line of a server that
    wrote its shutdown checkpoint there.
    """
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, request_stop),
        signal.SIGTERM: signal.signal(signal.SIGTERM, request_stop),
    }
    try:
        server.serve_background()
        print(f"listening on {server.url}", flush=True)
        stop.wait()
        print("shutting down ...", flush=True)
        wal_seq = server.close()
        role = server.app.role
        if wal_seq is not None:
            print(f"checkpointed through wal_seq {wal_seq} to {checkpoint_path}",
                  flush=True)
        elif role == "server":
            print("stopped without a checkpoint (WAL remains the recovery source)",
                  flush=True)
        else:
            print(f"{role} stopped (read-only: nothing to checkpoint)", flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
