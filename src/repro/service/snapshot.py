"""Save/load of a *built* :class:`SemTreeIndex` — index snapshots.

Re-embedding and re-building an index is by far the most expensive part of
standing a service up (FastMap alone costs O(n·k) semantic-distance
evaluations).  A snapshot captures everything the query phase needs —
the FastMap space (objects, coordinates, pivots), the distributed tree
structure (per-partition subtrees with remote links), the stored points,
document provenance and the generation counter — as one JSON document, so a
service can warm-start and answer queries identically to the process that
saved it.

The semantic distance itself is a function and is *not* serialised: the
loader takes the same ``TripleDistance`` the original index was built with,
mirroring the :class:`SemTreeIndex` constructor.  Loading with a different
distance yields a valid but semantically different index — out-of-sample
query projection would disagree with the stored pivots.

Format: a top-level ``{"format": "semtree-snapshot", "version": 1}``
envelope; see ``docs/service.md`` for the full layout.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.core.config import CapacityPolicy, SemTreeConfig, SplitStrategy
from repro.core.distributed import DistributedSemTree
from repro.core.node import Node
from repro.core.semtree import SemTreeIndex
from repro.embedding.fastmap import FastMapSpace
from repro.errors import ParseError
from repro.io.serialization import (node_from_dict, node_to_dict, triple_from_dict,
                                    triple_to_dict)
from repro.semantics.triple_distance import TripleDistance

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "config_to_dict",
           "config_from_dict", "save_index",
           "load_index", "load_index_payload", "read_snapshot_payload",
           "snapshot_vocabulary"]

SNAPSHOT_FORMAT = "semtree-snapshot"
SNAPSHOT_VERSION = 1


# -- configuration -----------------------------------------------------------------------

def config_to_dict(config: SemTreeConfig) -> Dict[str, Any]:
    return {
        "dimensions": config.dimensions,
        "bucket_size": config.bucket_size,
        "max_partitions": config.max_partitions,
        "partition_capacity": config.partition_capacity,
        "capacity_policy": config.capacity_policy.value,
        "node_capacity_fraction": config.node_capacity_fraction,
        "split_strategy": config.split_strategy.value,
        "scan_kernel": config.scan_kernel,
        "point_visit_cost": config.point_visit_cost,
        "point_insert_cost": config.point_insert_cost,
        "node_visit_cost": config.node_visit_cost,
    }


def config_from_dict(payload: Dict[str, Any]) -> SemTreeConfig:
    """Inverse of :func:`config_to_dict` (shared by index and shard boot)."""
    fields = dict(payload)
    fields["capacity_policy"] = CapacityPolicy(fields["capacity_policy"])
    fields["split_strategy"] = SplitStrategy(fields["split_strategy"])
    # Snapshots written before the kernel layer carry no scan_kernel field;
    # they load with the current default.
    return SemTreeConfig(**fields)


def _partition_order(partition_id: str) -> Tuple[int, Any]:
    # Numeric order (P0, P1, ..., P10) reproduces the original registration
    # order, hence the original deterministic partition placement.
    digits = partition_id.lstrip("P")
    return (0, int(digits)) if digits.isdigit() else (1, partition_id)


# -- saving ------------------------------------------------------------------------------

def save_index(index: SemTreeIndex, path: str | pathlib.Path, *,
               wal_seq: int | None = None,
               vocabulary: Dict[str, Any] | None = None) -> None:
    """Write a built index to ``path`` as one JSON snapshot.

    ``wal_seq`` is recorded by live-ingestion checkpoints
    (:meth:`repro.ingest.ingesting.IngestingIndex.checkpoint`): the highest
    write-ahead-log sequence number whose insert is folded into the
    snapshotted tree.  Recovery replays only the WAL records after it.

    ``vocabulary`` optionally records the hints the semantic distance was
    built from (``{"actors": [...], "parameters": {prefix: [...]}}``), so a
    rebooting process reproduces the exact same distance — including the
    string-distance fallback for terms inserted at runtime that the saving
    process's vocabularies did not know (see
    :func:`repro.server.bootstrap.derive_distance`).

    Raises
    ------
    IndexError_
        If the index has not been built yet (via :attr:`SemTreeIndex.tree`).
    """
    tree = index.tree
    partitions = sorted(tree.partitions, key=lambda p: _partition_order(p.partition_id))
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config": config_to_dict(index.config),
        "embedding": {
            "requested_dimensions": index.embedder.dimensions,
            "space": index.embedder.space.to_payload(triple_to_dict),
        },
        "tree": {
            "dimensions": tree.config.dimensions,
            "size": len(tree),
            "partitions": [
                {"partition_id": partition.partition_id,
                 "root": node_to_dict(partition.root)}
                for partition in partitions
            ],
        },
        "documents": [
            {"triple": triple_to_dict(triple), "document_ids": list(document_ids)}
            for triple, document_ids in index._documents_of.items()
        ],
        "pending": [triple_to_dict(triple) for triple in index._pending],
        "generation": index.generation,
    }
    if wal_seq is not None:
        payload["wal_seq"] = int(wal_seq)
    if vocabulary is not None:
        payload["vocabulary"] = vocabulary
    # Write-then-rename: a snapshot is a recovery point (the live-ingestion
    # checkpoint truncates the WAL against it), so a crash mid-write must
    # leave the previous snapshot intact, never a torn file.
    target = pathlib.Path(path)
    staging = target.with_suffix(target.suffix + ".staging")
    staging.write_text(json.dumps(payload))
    staging.replace(target)


def snapshot_vocabulary(payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The vocabulary hints recorded in a snapshot payload (``None`` when absent)."""
    vocabulary = payload.get("vocabulary")
    return vocabulary if isinstance(vocabulary, dict) else None


# -- loading -----------------------------------------------------------------------------

def read_snapshot_payload(path: str | pathlib.Path) -> Dict[str, Any]:
    """Parse and validate a snapshot file into its JSON payload.

    The single place snapshot files are parsed: boot paths that need the
    payload more than once (vocabulary derivation + index load) read it here
    and pass the dictionary on, so the file is parsed exactly once.
    """
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ParseError(f"snapshot is not valid JSON: {error}") from error
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ParseError(f"not a SemTree snapshot: format={payload.get('format')!r}")
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ParseError(
            f"unsupported snapshot version {payload.get('version')!r} "
            f"(expected {SNAPSHOT_VERSION})"
        )
    return payload


def load_index(path: str | pathlib.Path, distance: TripleDistance, *,
               cluster: SimulatedCluster | None = None) -> SemTreeIndex:
    """Rebuild a warm index from a snapshot written by :func:`save_index`.

    ``distance`` must be the semantic distance the snapshotted index was
    built with; ``cluster`` optionally re-hosts the partitions (a fresh
    simulated cluster is created otherwise, as in the constructor).

    The loaded index answers k-NN and range queries identically to the
    index that was saved, and supports further incremental inserts.
    """
    return load_index_payload(read_snapshot_payload(path), distance, cluster=cluster)


def load_index_payload(payload: Dict[str, Any], distance: TripleDistance, *,
                       cluster: SimulatedCluster | None = None) -> SemTreeIndex:
    """Rebuild a warm index from an already-parsed snapshot payload."""
    config = config_from_dict(payload["config"])
    index = SemTreeIndex(distance, config, cluster=cluster)
    index.embedder.dimensions = int(payload["embedding"]["requested_dimensions"])
    index.embedder.restore(
        FastMapSpace.from_payload(payload["embedding"]["space"], triple_from_dict)
    )

    tree_payload = payload["tree"]
    partition_roots: List[Tuple[str, Node]] = [
        (entry["partition_id"],
         node_from_dict(entry["root"], partition_id=entry["partition_id"]))
        for entry in tree_payload["partitions"]
    ]
    tree_config = config.with_updates(dimensions=int(tree_payload["dimensions"]))
    index._tree = DistributedSemTree.from_snapshot(
        tree_config, partition_roots, size=int(tree_payload["size"]),
        cluster=index.cluster,
    )
    # Presence comes from the stored points' labels, never from the
    # provenance map: a checkpoint taken without folding first persists
    # provenance for triples that live only in the WAL tail.
    index._present = {point.label for point in index._tree.points()}
    index._documents_of = {
        triple_from_dict(entry["triple"]): list(entry["document_ids"])
        for entry in payload.get("documents", [])
    }
    index._pending = [triple_from_dict(entry) for entry in payload.get("pending", [])]
    index._generation = int(payload.get("generation", 0))
    return index
