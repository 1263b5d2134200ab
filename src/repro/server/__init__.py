"""The process-level network front end over the serving stack.

Everything below this package runs in one Python process; ``repro.server``
is the layer that puts a socket in front of it, so the index can serve
clients that are not the process that built it:

* :mod:`repro.server.schemas` — wire request/response schemas: typed
  validation of query/insert payloads into :class:`QuerySpec` /
  :class:`Triple`, result rendering, structured JSON errors;
* :mod:`repro.server.shell` — :class:`ServiceShell` / :class:`EngineShell`,
  what every serving tier shares: request counters, the close-once
  lifecycle, the metrics registry and profiler, the
  health / metrics / profile routes and (engine-backed
  tiers) the ``/v1/knn`` / ``/v1/range`` handler;
* :mod:`repro.server.app` — :class:`ServerApp`, the full single-node tier:
  queries through :class:`~repro.service.engine.QueryEngine` (batched,
  cached, deadline-bounded), inserts through
  :class:`~repro.ingest.ingesting.IngestingIndex` (WAL + delta; the index
  is a set of triples, so every insert is safe to retry), the
  unified ``/v1/metrics`` payload, graceful close with
  checkpoint-on-exit;
* :mod:`repro.server.shard` — :class:`ShardApp`, one partition's raw scan
  endpoints (``--shard`` mode);
* :mod:`repro.server.protocol` — the framing and dispatch layer: one
  incremental request parser, one error ladder, one access-log line;
* :mod:`repro.server.http` — :class:`SemTreeServer`, the transport (one
  ``selectors`` event loop + a worker pool);
* :mod:`repro.server.bootstrap` — recovering a servable index (and the
  semantic distance) from a checkpoint snapshot + WAL on disk;
* :mod:`repro.server.cli` — the option group and serve loop the
  ``python -m repro.server`` and ``python -m repro.coordinator`` CLIs share;
* :mod:`repro.server.__main__` — the ``python -m repro.server`` CLI.

The HTTP client lives with the other workload drivers:
:class:`repro.workloads.ServerClient`, the client side of
:mod:`repro.server.protocol`'s framing — the tests, tools, benchmark suite
and the coordinator's shard transport all speak through it.  See ``docs/server.md`` for the API
reference and ``docs/architecture.md`` for where this layer sits.
"""

from repro.server.app import ServerApp
from repro.server.bootstrap import (derive_distance, harvest_triples, load_shard,
                                    recover_index)
from repro.server.http import SemTreeServer
from repro.server.schemas import (parse_insert_request, parse_query_request,
                                  parse_shard_scan_request, parse_triple,
                                  render_result)
from repro.server.shard import ShardApp
from repro.server.shell import EngineShell, ServiceShell

__all__ = [
    "ServiceShell",
    "EngineShell",
    "ServerApp",
    "ShardApp",
    "SemTreeServer",
    "derive_distance",
    "harvest_triples",
    "recover_index",
    "load_shard",
    "parse_triple",
    "parse_query_request",
    "parse_insert_request",
    "parse_shard_scan_request",
    "render_result",
]
