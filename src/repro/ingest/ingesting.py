""":class:`IngestingIndex` — a built SemTree that absorbs a live write stream.

PR 1's serving layer required quiescing every query to mutate the index.
This class removes that rule with the standard LSM recipe on top of
:class:`~repro.core.semtree.SemTreeIndex`:

* **inserts** append to a :class:`~repro.ingest.wal.WriteAheadLog` (crash
  durability) and land in a :class:`~repro.ingest.delta.DeltaIndex` — an
  in-memory linear-scan segment that is immediately queryable.  The index
  is a set of triples: a triple already present in the tree or the delta
  adds no point, so retrying an insert, or replaying its record, is a
  no-op;
* **reads** answer from tree ∪ delta with exact merge semantics (identical
  to a from-scratch rebuild) and run under the *read* side of a
  :class:`~repro.ingest.rwlock.ReadWriteLock`, so they interleave freely
  with inserts;
* **compaction** folds the delta into the distributed tree under the
  *write* side of the lock, bumping the index generation exactly once per
  fold — the serving layer's result cache invalidates at compaction
  granularity, not per insert.  The index never folds on its own: the
  caller that crossed the threshold calls :meth:`IngestingIndex.maybe_compact`
  (the server does so on the inserting request);
* **checkpoints** snapshot the tree (with the applied WAL sequence number)
  so recovery is snapshot + WAL-tail replay.

The class implements the same search protocol as
:class:`~repro.core.semtree.SemTreeIndex` (``generation`` / ``embed_query``
/ ``search_k_nearest`` / ``search_range`` / ``overlay_matches``), so a
:class:`~repro.service.engine.QueryEngine` serves it unchanged: cached
entries hold the cache-stable tree side of an answer and the engine overlays
the live delta on every result it returns.
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.point import LabeledPoint
from repro.core.semtree import SearchOutcome, SemanticMatch, SemTreeIndex
from repro.errors import IndexError_
from repro.ingest.delta import DeltaIndex
from repro.ingest.rwlock import ReadWriteLock
from repro.ingest.wal import WalRecord, WriteAheadLog
from repro.rdf.triple import Triple
from repro.semantics.triple_distance import TripleDistance
from repro.service.metrics import IngestMetrics
from repro.service.snapshot import (load_index_payload, read_snapshot_payload,
                                    save_index)

__all__ = ["IngestingIndex"]

#: Default number of delta points that triggers a compaction.
DEFAULT_COMPACTION_THRESHOLD = 256


class IngestingIndex:
    """A live-ingesting view over one *built* :class:`SemTreeIndex`.

    Parameters
    ----------
    base:
        The built index (its tree and FastMap space serve the stable side).
    wal:
        A :class:`WriteAheadLog` or a path to open one at.
    applied_seq:
        The highest WAL sequence number already represented by ``base``
        (0 for a fresh log).  Records after it are replayed into the delta at
        construction, which makes the constructor double as crash recovery
        when the WAL is non-empty.
    compaction_threshold:
        Delta size at which :meth:`maybe_compact` folds.
    vocabulary_hints:
        Optional ``{"actors": [...], "parameters": {prefix: [...]}}``
        description of the vocabularies the semantic distance was built
        from; persisted into every checkpoint so a rebooting process can
        rebuild the exact same distance
        (:func:`repro.server.bootstrap.derive_distance`).
    """

    def __init__(self, base: SemTreeIndex, wal: WriteAheadLog | str | pathlib.Path, *,
                 applied_seq: int = 0,
                 compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD,
                 vocabulary_hints: Optional[Dict[str, object]] = None):
        if not base.is_built:
            raise IndexError_("an IngestingIndex needs a built base index")
        if compaction_threshold < 1:
            raise IndexError_(
                f"compaction_threshold must be >= 1, got {compaction_threshold}"
            )
        self.base = base
        self.wal = wal if isinstance(wal, WriteAheadLog) else WriteAheadLog(wal)
        self.compaction_threshold = compaction_threshold
        self.vocabulary_hints = vocabulary_hints
        self.metrics = IngestMetrics()
        self.delta = DeltaIndex(scan_kernel=base.config.scan_kernel)
        self._lock = ReadWriteLock()
        # Serialises WAL-append + delta-add so delta order equals sequence
        # order and a drain always covers a gapless prefix of the stream.
        self._insert_lock = threading.Lock()
        # One threshold fold at a time (see maybe_compact).
        self._fold_lock = threading.Lock()
        self._applied_seq = applied_seq
        # A checkpoint may have truncated the log to empty; numbering must
        # continue after the snapshot's applied sequence regardless.
        self.wal.advance_to(applied_seq)
        replayed = 0
        for record in self.wal.replay(after=applied_seq):
            self._apply_record(record)
            replayed += 1
        if replayed:
            self.metrics.record_replay(replayed)

    # -- recovery -----------------------------------------------------------------------

    @classmethod
    def recover(cls, snapshot_path: str | pathlib.Path,
                wal_path: str | pathlib.Path, distance: TripleDistance, *,
                compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD) -> "IngestingIndex":
        """Restore an ingesting index from a checkpoint snapshot + WAL tail.

        The snapshot rebuilds the tree exactly as checkpointed; every WAL
        record after the snapshot's ``wal_seq`` is re-projected into the
        delta.  The recovered index answers queries identically to the
        process that died.
        """
        payload = read_snapshot_payload(snapshot_path)
        base = load_index_payload(payload, distance)
        return cls(base, wal_path, applied_seq=int(payload.get("wal_seq", 0)),
                   compaction_threshold=compaction_threshold)

    def _apply_record(self, record: WalRecord) -> None:
        self._apply(record.triple, record.document_id)

    def _contains(self, triple: Triple) -> bool:
        """True when a point labelled with ``triple`` is in the tree or the delta."""
        return triple in self.base or triple in self.delta

    def _apply(self, triple: Triple, document_id: Optional[str],
               point: Optional[LabeledPoint] = None) -> None:
        """Stage one logged insert under the set rule (insert and replay alike).

        A triple in the tree only gains provenance, through the base index's
        own rule (which moves the generation, so cached matches re-dress).
        A triple in the delta gains provenance too; its matches are dressed
        on every read.  Anything else is a new point: ``point``, or the
        triple projected here when none is given — so a present triple is
        never projected.
        """
        if triple in self.base:
            self.base.insert_triple(triple, document_id=document_id)
            return
        if document_id is not None:
            self.base.register_provenance(triple, document_id)
        if triple not in self.delta:
            self.delta.add(point if point is not None else self.base.embed_query(triple))

    # -- the write path -----------------------------------------------------------------

    def insert(self, triple: Triple, *, document_id: str | None = None) -> int:
        """Project, log and stage one triple; returns a WAL sequence number.

        The triple is queryable the moment this returns.  An absent triple
        is projected first, outside every lock, so a triple that cannot be
        projected is never logged (and never reappears on recovery).  A
        present one is not projected at all: presence only grows (a fold
        moves a point from the delta to the tree, nothing removes one), so
        a triple seen present here is still present under the lock, and a
        stale "absent" costs one projection the check below discards.
        Logging and staging run as *readers* of the tree lock: any number of
        inserts interleave with queries, and only an in-flight compaction (a
        writer) briefly delays them.

        A triple already present brings at most a new ``document_id``; when
        it brings none, nothing is logged and the returned sequence number
        is the WAL's last, whose prefix holds the triple.  The check and
        the write share ``_insert_lock``, so concurrent identical inserts
        leave one point.
        """
        point = None if self._contains(triple) else self.base.embed_query(triple)
        with self._lock.read():
            with self._insert_lock:
                if self._contains(triple) and (
                        document_id is None
                        or document_id in self.base.documents_of(triple)):
                    seq = self.wal.last_seq
                else:
                    seq = self.wal.append(triple, document_id=document_id)
                    self._apply(triple, document_id, point)
        self.metrics.record_insert()
        return seq

    def insert_many(self, triples, *, document_id: str | None = None) -> int:
        """Insert a batch of triples; returns the last sequence number."""
        seq = self.wal.last_seq
        for triple in triples:
            seq = self.insert(triple, document_id=document_id)
        return seq

    # -- compaction ---------------------------------------------------------------------

    def should_compact(self) -> bool:
        """True when the delta has reached the compaction threshold."""
        return len(self.delta) >= self.compaction_threshold

    def maybe_compact(self) -> int:
        """Fold the delta if it has reached the threshold; returns points folded.

        Called by whoever crossed the threshold, after its insert returned
        (never under an index lock).  One fold at a time: a caller that
        finds another fold running returns 0 at once, and the threshold is
        checked again once the lock is held, so callers that crossed it
        together fold once between them.
        """
        if not self.should_compact() or not self._fold_lock.acquire(blocking=False):
            return 0
        try:
            return self.compact() if self.should_compact() else 0
        finally:
            self._fold_lock.release()

    def compact(self) -> int:
        """Fold the current delta into the distributed tree (exclusive).

        Takes the write lock, drains the delta, inserts every point into the
        tree and bumps the generation exactly once.  Returns the number of
        points folded (0 when the delta was empty — and then the generation
        stays).
        """
        started = time.perf_counter()
        with self._lock.write():
            points = self.delta.drain()
            folded = self.base.absorb_points(points)
            # Every logged record is now in the tree or the provenance map,
            # a provenance-only record (which staged no point) included.
            self._applied_seq = self.wal.last_seq
        if not folded:
            return 0
        self.metrics.record_compaction(folded, time.perf_counter() - started)
        return folded

    # -- checkpoints --------------------------------------------------------------------

    def checkpoint(self, snapshot_path: str | pathlib.Path, *,
                   compact_first: bool = True, truncate_wal: bool = True) -> int:
        """Write a recovery point: snapshot the tree, optionally shrink the WAL.

        With the defaults the delta is folded first (so the snapshot covers
        everything inserted so far) and the WAL drops the records the
        snapshot now covers.  With ``compact_first=False`` the snapshot
        covers the tree only and recovery replays the delta's records from
        the WAL tail.  Returns the ``wal_seq`` recorded in the snapshot.
        """
        if compact_first:
            self.compact()
        with self._lock.write():
            applied = self._applied_seq
            save_index(self.base, snapshot_path, wal_seq=applied,
                       vocabulary=self.vocabulary_hints)
        if truncate_wal:
            self.wal.truncate_through(applied)
        return applied

    # -- the search protocol (served by QueryEngine) ------------------------------------

    @property
    def generation(self) -> int:
        """The *tree* generation: stable across inserts, bumped per compaction."""
        return self.base.generation

    def embed_query(self, triple: Triple) -> LabeledPoint:
        """Project a query triple into the base index's fitted space.

        Needs no lock: projection only reads the fitted space, and the
        semantic-distance memo caches it fills store fully built values.
        """
        return self.base.embed_query(triple)

    def search_k_nearest(self, point: LabeledPoint, k: int) -> SearchOutcome:
        """The cache-stable side of a k-NN read: a tree-only search.

        The matches must be completed with :meth:`overlay_matches` before
        being served — the engine does exactly that, for fresh executions and
        cache hits alike.
        """
        with self._lock.read():
            generation = self.base.generation
            state = self.base.tree.k_nearest_state(point, k)
            matches = tuple(self.base.to_match(n) for n in state.results.neighbours())
        return SearchOutcome(
            matches=matches,
            visited_partitions=tuple(state.visited_partition_ids),
            nodes_visited=state.nodes_visited,
            points_examined=state.points_examined,
            generation=generation,
            cost=state.cost,
        )

    def search_range(self, point: LabeledPoint, radius: float) -> SearchOutcome:
        """The cache-stable side of a range read: a tree-only search."""
        with self._lock.read():
            generation = self.base.generation
            state = self.base.tree.range_query_state(point, radius)
            matches = tuple(self.base.to_match(n) for n in state.sorted_results())
        return SearchOutcome(
            matches=matches,
            visited_partitions=tuple(state.visited_partition_ids),
            nodes_visited=state.nodes_visited,
            points_examined=state.points_examined,
            generation=generation,
            cost=state.cost,
        )

    def overlay_matches(self, kind: str, point: LabeledPoint, parameter: float,
                        matches: Tuple[SemanticMatch, ...],
                        generation: int) -> Optional[Tuple[SemanticMatch, ...]]:
        """Merge the live delta into tree-side matches computed at ``generation``.

        Returns ``None`` when the tree has moved past ``generation`` (a
        compaction landed since the matches were computed): the delta no
        longer holds the folded points, so the merge would drop them — the
        caller must redo the search.  ``parameter`` is ``k`` for k-NN merges
        and the radius for range merges; the merged list is sorted by
        distance with ties keeping tree results first, exactly like a
        rebuilt index's own result order.
        """
        with self._lock.read():
            if self.base.generation != generation:
                return None
            if kind == "knn":
                # The merged top-k can hold at most k delta points, so the
                # delta only has to surface its own k closest.
                extra = self.delta.k_nearest(point, int(parameter))
            else:
                extra = self.delta.neighbours_within(point, parameter)
        if not extra:
            return tuple(matches)
        merged = list(matches) + [self.base.to_match(n) for n in extra]
        merged.sort(key=lambda match: match.distance)
        if kind == "knn":
            merged = merged[:int(parameter)]
        return tuple(merged)

    # -- direct (engine-less) queries ---------------------------------------------------

    def k_nearest(self, query: Triple, k: int) -> List[SemanticMatch]:
        """The ``k`` closest stored triples, merged across tree and delta."""
        return self._merged(("knn", k), self.embed_query(query))

    def range_query(self, query: Triple, radius: float) -> List[SemanticMatch]:
        """Every stored triple within ``radius``, merged across tree and delta."""
        return self._merged(("range", radius), self.embed_query(query))

    def _merged(self, query: Tuple[str, float], point: LabeledPoint) -> List[SemanticMatch]:
        kind, parameter = query
        while True:
            if kind == "knn":
                outcome = self.search_k_nearest(point, int(parameter))
            else:
                outcome = self.search_range(point, parameter)
            merged = self.overlay_matches(kind, point, parameter, outcome.matches,
                                          outcome.generation)
            if merged is not None:
                return list(merged)

    # -- introspection ------------------------------------------------------------------

    def __len__(self) -> int:
        # As a reader of the tree lock: a compaction drains the delta before
        # it has inserted the drained points, and an unlocked sum taken in
        # between misses every acknowledged point still in its hands.
        with self._lock.read():
            return len(self.base) + len(self.delta)

    @property
    def applied_seq(self) -> int:
        """Highest WAL sequence number the tree and provenance map cover."""
        return self._applied_seq

    def statistics(self) -> Dict[str, object]:
        """Ingest gauges and counters merged with the write-path metrics."""
        with self._lock.read():
            tree_points, delta_points = len(self.base), len(self.delta)
        stats: Dict[str, object] = {
            "points": tree_points + delta_points,
            "tree_points": tree_points,
            "delta_points": delta_points,
            "wal_records": len(self.wal),
            "applied_seq": self._applied_seq,
            "last_seq": self.wal.last_seq,
            "generation": self.generation,
            "compaction_threshold": self.compaction_threshold,
        }
        stats.update(self.metrics.snapshot())
        return stats

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Close the write-ahead log (the in-memory index stays queryable)."""
        self.wal.close()

    def __enter__(self) -> "IngestingIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"IngestingIndex(tree={len(self.base)}, delta={len(self.delta)}, "
            f"generation={self.generation})"
        )
