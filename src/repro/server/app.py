"""The server application: endpoint logic of a full single-node server.

:class:`ServerApp` owns the serving stack of one process — an
:class:`~repro.ingest.ingesting.IngestingIndex` (write-ahead log + delta
segment) and a :class:`~repro.service.engine.QueryEngine` (result cache,
search slots, deadlines), which serves each query on the transport worker
that handles its request.  Queries, observability endpoints and the
lifecycle come from :class:`~repro.server.shell.EngineShell`; this module
adds what only a full server has: the write endpoint (whose request folds
the delta when it crosses the compaction threshold), ``/v1/index``, the
``ingest`` / ``index`` metrics sections, the wire-cache epoch and the
shutdown checkpoint.

The unified metrics payload
---------------------------
``/v1/metrics`` merges counters from three subsystems that historically
named their fields each their own way (``qps`` vs ``ingest_qps``, a
hand-picked subset of the cache counters).  :meth:`ServerApp.metrics`
publishes one stable, fully snake_case schema instead — four sections
(``serving`` / ``cache`` / ``ingest`` / ``index``) plus ``server``, with the
shared conventions ``qps``, ``wall_seconds`` and ``*_ms`` sub-dictionaries
that are *always present* (zeroed before the first sample).  The exact key
sets are documented in ``docs/server.md`` and locked down by
``tests/server/test_metrics_schema.py``.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional

from repro.errors import QueryError
from repro.ingest.ingesting import IngestingIndex
from repro.server.schemas import PartialInsertError, parse_insert_request
from repro.server.shell import EngineShell
from repro.service.snapshot import config_to_dict

__all__ = ["ServerApp"]

#: Zeroed compaction sub-dictionary, so the metrics schema is stable before
#: the first compaction lands.
_EMPTY_COMPACTION = {"mean": 0.0, "max": 0.0, "last": 0.0}


class ServerApp(EngineShell):
    """Endpoint logic over one live-ingesting index.

    Parameters
    ----------
    index:
        The :class:`IngestingIndex` to serve.  The server requires the
        ingesting wrapper (not a bare ``SemTreeIndex``) because ``/v1/insert``
        writes through the WAL + delta path and the shutdown checkpoint
        needs the WAL's applied sequence number.
    checkpoint_path:
        Where :meth:`close` writes the shutdown checkpoint (``None`` skips
        checkpoint-on-exit).

    Remaining keyword arguments (engine sizing, result cache, admission
    control, observability) are :class:`~repro.server.shell.EngineShell`'s.
    Folds happen on the ``/v1/insert`` request that crossed the index's
    ``compaction_threshold``, and once at construction for a recovered
    delta already at it; a threshold the workload never reaches means no
    fold until the shutdown checkpoint.
    """

    role = "server"

    def __init__(self, index: IngestingIndex, *,
                 checkpoint_path: str | pathlib.Path | None = None,
                 **serving_options):
        if not isinstance(index, IngestingIndex):
            raise QueryError(
                "ServerApp serves an IngestingIndex (wrap the built index so "
                f"inserts hit the WAL + delta path), got {type(index).__name__}"
            )
        self.checkpoint_path = (
            pathlib.Path(checkpoint_path) if checkpoint_path is not None else None
        )
        super().__init__(index, **serving_options)
        # A recovered WAL tail at or over the threshold folds before the
        # first request is answered.
        index.maybe_compact()

    def _bind_registry(self) -> None:
        super()._bind_registry()
        self.registry.adopt(self.index.metrics.registry)
        self.registry.gauge(
            "repro_index_points", "Points currently queryable (tree + delta).",
        ).set_function(lambda: float(len(self.index)))
        self.registry.gauge(
            "repro_index_delta_points", "Points in the live delta segment.",
        ).set_function(lambda: float(len(self.index.delta)))
        self.registry.gauge(
            "repro_index_generation", "Index epoch (bumped by every mutation).",
        ).set_function(lambda: float(self.index.generation))

    # -- routing ------------------------------------------------------------------------

    def post_routes(self) -> Dict[str, Any]:
        return {**super().post_routes(), "/v1/insert": self.handle_insert}

    def get_routes(self) -> Dict[str, Any]:
        return {**super().get_routes(), "/v1/index": self.index_info}

    # -- wire-cache hooks (consumed by repro.server.http) -------------------------------

    def wire_cacheable_routes(self) -> frozenset:
        return frozenset({"/v1/knn", "/v1/range"})

    def wire_cache_epoch(self) -> tuple:
        """``(tree generation, last WAL sequence)``: the generation moves per
        compaction, the WAL sequence per insert — so a wire-cached answer
        is valid exactly while both stand still.  (The engine's own result
        cache can survive inserts by overlaying delta matches; a cache of
        serialised response bytes cannot, hence the stricter key.)
        """
        return (self.index.generation, self.index.wal.last_seq)

    # -- the write endpoint -------------------------------------------------------------

    def handle_insert(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/insert`` — write one or many triples through WAL + delta.

        Every accepted triple is durable (WAL-appended) and queryable before
        the response is sent.  The response reports the WAL sequence numbers
        so a client can correlate with checkpoints.  A request whose batch
        takes the delta to the compaction threshold folds it before
        answering.  The index is a set of triples, so a triple already
        present adds no point: any insert may be retried, and a retry that
        finds its first attempt applied changes nothing.
        """
        self._check_open()
        self._count("insert")
        inserts, batched = parse_insert_request(body)
        sequences: list = []
        try:
            for triple, document_id in inserts:
                sequences.append(self.index.insert(triple, document_id=document_id))
        except Exception as error:
            if sequences:
                # The applied prefix is WAL-durable and queryable; tell the
                # client exactly what landed (retrying the batch is safe).
                raise PartialInsertError(
                    f"insert {len(sequences) + 1} of {len(inserts)} failed: "
                    f"{type(error).__name__}: {error}",
                    accepted=len(sequences),
                    first_seq=sequences[0], last_seq=sequences[-1],
                ) from error
            raise
        # The request that crossed the threshold folds, outside every index
        # lock and after the batch is applied.
        self.index.maybe_compact()
        if batched:
            return {
                "accepted": len(sequences),
                "first_seq": sequences[0],
                "last_seq": sequences[-1],
            }
        return {"seq": sequences[0], "delta_points": len(self.index.delta)}

    # -- observability endpoints --------------------------------------------------------

    def health(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the vitals a probe wants."""
        self._count("healthz")
        return {
            "status": "closing" if self.closed else "ok",
            "generation": self.index.generation,
            "points": len(self.index),
            "uptime_seconds": self.uptime_seconds,
        }

    def index_info(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/index`` — what is being served: shape, config, kernel."""
        self._check_open()
        self._count("index")
        config = self.index.base.config
        return {
            "generation": self.index.generation,
            "points": len(self.index),
            "tree_points": len(self.index.base),
            "delta_points": len(self.index.delta),
            "applied_seq": self.index.applied_seq,
            "last_seq": self.index.wal.last_seq,
            "kernel": config.scan_kernel,
            "config": config_to_dict(config),
        }

    def _tier_metrics(self) -> Dict[str, Any]:
        """The ``ingest`` / ``index`` / ``server`` sections of ``/v1/metrics``."""
        raw_ingest = self.index.statistics()
        compaction_ms = raw_ingest.get("compaction_ms", dict(_EMPTY_COMPACTION))
        ingest = {
            "inserts": raw_ingest["inserts"],
            "replayed": raw_ingest["replayed"],
            "wall_seconds": raw_ingest["ingest_wall_seconds"],
            "qps": raw_ingest["ingest_qps"],
            "compactions": raw_ingest["compactions"],
            "points_compacted": raw_ingest["points_compacted"],
            "compaction_ms": compaction_ms,
            "compaction_threshold": raw_ingest["compaction_threshold"],
            "delta_points": raw_ingest["delta_points"],
            "wal_records": raw_ingest["wal_records"],
            "applied_seq": raw_ingest["applied_seq"],
            "last_seq": raw_ingest["last_seq"],
        }
        index = {
            "generation": self.index.generation,
            "points": len(self.index),
            "tree_points": len(self.index.base),
            "kernel": self.index.base.config.scan_kernel,
            "dimensions": self.index.base.config.dimensions,
        }
        return {
            "ingest": ingest,
            "index": index,
            "server": self._process_metrics(),
        }

    # -- lifecycle ----------------------------------------------------------------------

    def close(self, *, checkpoint: bool | None = None) -> Optional[int]:
        """Graceful shutdown: close the engine, checkpoint, close the WAL.

        ``checkpoint`` defaults to "yes iff a ``checkpoint_path`` was
        configured".  Returns the checkpointed ``wal_seq`` (``None`` when no
        checkpoint was written).  Idempotent.
        """
        if checkpoint is None:
            checkpoint = self.checkpoint_path is not None
        # Validate before any teardown: raising mid-close would leave the
        # app half shut down (closed flag set, WAL still open) with every
        # retry a no-op.
        if checkpoint and self.checkpoint_path is None:
            raise QueryError("cannot checkpoint: no checkpoint_path configured")
        return super().close(checkpoint=checkpoint)

    def _teardown(self, checkpoint: bool | None) -> Optional[int]:
        self.engine.close()
        wal_seq: Optional[int] = None
        if checkpoint:
            wal_seq = self.index.checkpoint(self.checkpoint_path)
        self.index.close()
        return wal_seq

    def __repr__(self) -> str:
        return (
            f"ServerApp(index={self.index!r}, engine={self.engine!r}, "
            f"closed={self.closed})"
        )
