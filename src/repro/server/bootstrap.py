"""Booting a server process from durable state on disk.

A checkpoint snapshot intentionally does **not** serialise the semantic
distance — it is a function (see :mod:`repro.service.snapshot`).  A server
process booting from ``--snapshot`` + ``--wal`` therefore has to rebuild an
equivalent :class:`~repro.semantics.triple_distance.TripleDistance` first.
For the requirements case study this is mechanical: the function taxonomy
and antinomy pairs are static (:mod:`repro.requirements.vocabulary`), and
the data-dependent parts — actor names and parameter values — come from one
of two places:

* **Persisted hints** (preferred): a checkpoint written by a process that
  knew its vocabulary carries a ``vocabulary`` section
  (``{"actors": [...], "parameters": {prefix: [...]}}``).  Rebuilding from
  it reproduces the previous process *exactly* — a term inserted at runtime
  that the previous vocabularies did not know keeps its string-distance
  fallback after the reboot, so rankings cannot shift.
* **Harvesting** (fallback, for snapshots without the section): every
  triple in the snapshot and WAL is walked and its actors/parameters feed
  fresh vocabularies.  This is equivalent for corpora whose terms were all
  known at build time; runtime-inserted novel terms gain taxonomy placement
  on reboot (rankings get better, not identical).

Boot parses each file exactly once: the snapshot payload is read through
:func:`repro.service.snapshot.read_snapshot_payload` and shared between
vocabulary derivation and index loading, and the write-ahead log is scanned
once at open (``keep_records=True``) with the retained records serving both
the harvest and the recovery replay.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.config import SemTreeConfig
from repro.core.distributed import subtree_point_count
from repro.core.node import Node
from repro.errors import ParseError, PartitionError
from repro.ingest.ingesting import DEFAULT_COMPACTION_THRESHOLD, IngestingIndex
from repro.ingest.wal import WriteAheadLog
from repro.io.serialization import iter_json_lines, node_from_dict, triple_from_dict
from repro.rdf.terms import Concept
from repro.rdf.triple import Triple
from repro.requirements.vocabulary import (PARAMETER_PREFIXES,
                                           build_requirement_distance,
                                           build_requirement_vocabularies)
from repro.semantics.triple_distance import TripleDistance
from repro.service.snapshot import (config_from_dict, load_index_payload,
                                    read_snapshot_payload, snapshot_vocabulary)

__all__ = [
    "harvest_triples",
    "vocabulary_hints",
    "derive_distance",
    "derive_distance_from_state",
    "recover_index",
    "ShardBoot",
    "load_shard",
    "wal_tail_seq",
]


def _walk_triples(payload: Any) -> Iterator[Triple]:
    """Yield every serialised triple found anywhere inside a JSON payload.

    A wire triple is a dictionary holding ``subject`` / ``predicate`` /
    ``object`` term dictionaries; the walk is generic so it finds them in
    the embedding space's object list, the tree's leaf buckets, the
    provenance map and the pending list alike — wherever the snapshot
    format puts them now or later.
    """
    if isinstance(payload, dict):
        keys = payload.keys()
        if {"subject", "predicate", "object"} <= set(keys) and all(
            isinstance(payload[position], dict)
            for position in ("subject", "predicate", "object")
        ):
            try:
                yield triple_from_dict(payload)
                return
            except (ParseError, KeyError, TypeError):
                pass  # not a triple after all (term dicts may be malformed
                      # or incomplete in arbitrary JSON); keep walking
        for value in payload.values():
            yield from _walk_triples(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _walk_triples(value)


def _harvest_state(snapshot_payload: Any,
                   wal_payloads: Iterable[Dict[str, Any]] = ()) -> List[Triple]:
    """Every distinct triple in a parsed snapshot + parsed WAL records."""
    triples = list(_walk_triples(snapshot_payload))
    for record in wal_payloads:
        triple_payload = record.get("triple")
        if isinstance(triple_payload, dict):
            triples.extend(_walk_triples(triple_payload))
    return list(dict.fromkeys(triples))


def _read_wal_payloads(wal_path: str | pathlib.Path | None) -> List[Dict[str, Any]]:
    if wal_path is None or not pathlib.Path(wal_path).exists():
        return []
    return [record for _, record in iter_json_lines(wal_path, tolerate_torn_tail=True)]


def harvest_triples(snapshot_path: str | pathlib.Path,
                    wal_path: str | pathlib.Path | None = None) -> List[Triple]:
    """Every distinct triple in a snapshot and (optionally) a WAL, in file order."""
    try:
        payload = json.loads(pathlib.Path(snapshot_path).read_text())
    except json.JSONDecodeError as error:
        raise ParseError(f"snapshot is not valid JSON: {error}") from error
    return _harvest_state(payload, _read_wal_payloads(wal_path))


def vocabulary_hints(triples: Iterable[Triple]) -> Tuple[List[str], Dict[str, List[str]]]:
    """Actor names and per-prefix parameter values mentioned by ``triples``.

    Subjects in the default (empty-prefix) vocabulary are actors; objects
    whose prefix is one of the case study's parameter prefixes contribute
    parameter values.  Both lists hold each value once, first-seen order.
    """
    actors: Dict[str, None] = {}
    parameters: Dict[str, Dict[str, None]] = {}
    for triple in triples:
        subject = triple.subject
        if isinstance(subject, Concept) and subject.prefix == "":
            actors.setdefault(subject.name)
        obj = triple.object
        if isinstance(obj, Concept) and obj.prefix in PARAMETER_PREFIXES:
            parameters.setdefault(obj.prefix, {}).setdefault(obj.name)
    return list(actors), {prefix: list(values) for prefix, values in parameters.items()}


def derive_distance_from_state(snapshot_payload: Any,
                               wal_payloads: Iterable[Dict[str, Any]] = (), *,
                               extra_actors: Sequence[str] = (),
                               ) -> Tuple[TripleDistance, Dict[str, Any]]:
    """The case-study distance matching an already-parsed durable state.

    Returns ``(distance, hints)`` where ``hints`` is the persistable
    ``{"actors": [...], "parameters": {...}}`` description of the
    vocabularies the distance was actually built from — attach it to the
    :class:`IngestingIndex` so the next checkpoint records it.

    When the snapshot carries a ``vocabulary`` section, the distance is
    rebuilt from it verbatim (exact reproduction); otherwise the actors and
    parameters are harvested from the stored triples.
    """
    stored = snapshot_vocabulary(snapshot_payload) if isinstance(
        snapshot_payload, dict) else None
    if stored is not None:
        actors = [str(name) for name in stored.get("actors", [])]
        parameter_values = {
            str(prefix): [str(value) for value in values]
            for prefix, values in (stored.get("parameters") or {}).items()
        }
    else:
        actors, parameter_values = vocabulary_hints(
            _harvest_state(snapshot_payload, wal_payloads)
        )
    for name in extra_actors:
        if name and name not in actors:
            actors.append(name)
    distance = build_requirement_distance(
        build_requirement_vocabularies(actors, parameter_values)
    )
    hints = {"actors": list(actors), "parameters": dict(parameter_values)}
    return distance, hints


def derive_distance(snapshot_path: str | pathlib.Path,
                    wal_path: str | pathlib.Path | None = None, *,
                    extra_actors: Sequence[str] = ()) -> TripleDistance:
    """The requirement-case-study distance matching a durable state on disk.

    ``extra_actors`` lets the operator pre-register actors that future
    inserts will mention but the stored corpus does not yet (terms unknown to
    a vocabulary still work — the term distance falls back to a string
    distance — but taxonomy placement gives them real semantics).
    """
    try:
        payload = json.loads(pathlib.Path(snapshot_path).read_text())
    except json.JSONDecodeError as error:
        raise ParseError(f"snapshot is not valid JSON: {error}") from error
    distance, _ = derive_distance_from_state(
        payload, _read_wal_payloads(wal_path), extra_actors=extra_actors
    )
    return distance


def recover_index(snapshot_path: str | pathlib.Path,
                  wal_path: str | pathlib.Path, *,
                  extra_actors: Sequence[str] = (),
                  compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD,
                  ) -> IngestingIndex:
    """Checkpoint + WAL-tail recovery with a snapshot-derived distance.

    The convenience composition the CLI uses, in one pass over each file:
    the snapshot is parsed once (vocabulary + index load share the payload),
    and the WAL is read once (its open-time scan retains the records, which
    serve both the vocabulary harvest and the tail replay).
    """
    payload = read_snapshot_payload(snapshot_path)
    wal = WriteAheadLog(wal_path, keep_records=True)
    distance, hints = derive_distance_from_state(
        payload, wal.preloaded_payloads(), extra_actors=extra_actors
    )
    base = load_index_payload(payload, distance)
    return IngestingIndex(
        base, wal, applied_seq=int(payload.get("wal_seq", 0)),
        compaction_threshold=compaction_threshold,
        vocabulary_hints=hints,
    )


# -- shard boot ----------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ShardBoot:
    """Everything a shard server needs from a snapshot: one partition's subtree.

    A shard never embeds queries (the coordinator ships embedded
    coordinates) and never consults the semantic distance, so the boot is a
    fraction of a full recovery: config + the named partition's root node.
    ``partition_ids`` lists every partition of the snapshot so operators can
    check a topology covers them all.
    """

    partition_id: str
    root: Node
    config: SemTreeConfig
    points: int
    generation: int
    wal_seq: int
    partition_ids: Tuple[str, ...]


def load_shard(snapshot_path: str | pathlib.Path, partition_id: str) -> ShardBoot:
    """Load one partition's subtree from a checkpoint snapshot.

    Raises
    ------
    PartitionError
        If the snapshot does not contain ``partition_id``.
    """
    payload = read_snapshot_payload(snapshot_path)
    config = config_from_dict(payload["config"])
    tree_payload = payload["tree"]
    config = config.with_updates(dimensions=int(tree_payload["dimensions"]))
    entries = {entry["partition_id"]: entry for entry in tree_payload["partitions"]}
    if partition_id not in entries:
        known = ", ".join(sorted(entries))
        raise PartitionError(
            f"snapshot {snapshot_path} has no partition {partition_id!r} "
            f"(it holds: {known})"
        )
    root = node_from_dict(entries[partition_id]["root"], partition_id=partition_id)
    points = subtree_point_count(root)
    return ShardBoot(
        partition_id=partition_id,
        root=root,
        config=config,
        points=points,
        generation=int(payload.get("generation", 0)),
        wal_seq=int(payload.get("wal_seq", 0)),
        partition_ids=tuple(sorted(entries)),
    )


def wal_tail_seq(wal_path: str | pathlib.Path | None) -> int:
    """Highest sequence number present in a WAL file (0 when absent/empty).

    Shard boot uses this to refuse serving a stale view: a WAL tail past the
    snapshot's ``wal_seq`` holds inserts the partition subtree does not
    contain, and a shard has no delta segment to replay them into —
    checkpoint first, then boot the shards.
    """
    if wal_path is None or not pathlib.Path(wal_path).exists():
        return 0
    highest = 0
    for _, record in iter_json_lines(wal_path, tolerate_torn_tail=True):
        try:
            highest = max(highest, int(record.get("seq", 0)))
        except (AttributeError, TypeError, ValueError):
            continue
    return highest
