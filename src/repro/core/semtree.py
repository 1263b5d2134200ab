"""The SemTree facade: triples in, semantic k-NN / range retrieval out.

:class:`SemTreeIndex` wires together the full pipeline of Section III:

1. triples (optionally grouped into documents) are collected;
2. the semantic distance of Eq. (1) compares them;
3. FastMap maps them into a k-dimensional vector space;
4. a distributed bucket KD-tree indexes the resulting points;
5. k-nearest and range queries accept a *query triple*, project it into the
   same space and return the stored triples closest to it.

The facade has two phases: an accumulation phase (:meth:`add_triple` /
:meth:`add_document`) and, after :meth:`build`, a query phase.  Incremental
insertion after the build is supported (:meth:`insert_triple`): new triples
are projected with the already-fitted FastMap pivots and inserted into the
distributed tree dynamically, which is exactly the paper's dynamic-insertion
regime.

The index is a *set* of triples, as an RDF graph is: a triple that already
labels a stored point is never stored again, however it arrives (build,
insertion, or a retried insertion).  Its provenance is a set too — each
document id is kept once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.core.config import SemTreeConfig
from repro.core.cost import SearchCost
from repro.core.distributed import DistributedSemTree
from repro.core.knn import Neighbour
from repro.core.point import LabeledPoint
from repro.embedding.triple_embedder import TripleEmbedder
from repro.errors import IndexError_, QueryError
from repro.rdf.document import Document, DocumentCollection
from repro.rdf.triple import Triple
from repro.semantics.triple_distance import TripleDistance

__all__ = ["SemTreeIndex", "SemanticMatch", "SearchOutcome"]


class SemanticMatch:
    """One query result: a stored triple, its distance and its source documents."""

    __slots__ = ("triple", "distance", "documents")

    def __init__(self, triple: Triple, distance: float, documents: Tuple[str, ...] = ()):
        self.triple = triple
        self.distance = distance
        self.documents = documents

    def __repr__(self) -> str:
        return (
            f"SemanticMatch(triple={self.triple}, distance={self.distance:.4f}, "
            f"documents={list(self.documents)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemanticMatch):
            return NotImplemented
        return (self.triple, self.distance, self.documents) == (
            other.triple, other.distance, other.documents
        )

    def __hash__(self) -> int:
        return hash((self.triple, self.distance, self.documents))


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """The result of one index search, dressed for the serving layer.

    ``generation`` is the index generation the matches were computed at; the
    serving layer keys its result cache on it and the live-ingestion overlay
    (:meth:`repro.ingest.ingesting.IngestingIndex.overlay_matches`) uses it
    to detect a compaction racing with the read.  ``cost`` carries the
    search's fine-grained work counters
    (:class:`~repro.core.cost.SearchCost`); for a scatter-gather search it is
    the cluster-wide sum over every shard scanned.

    ``degraded`` is ``None`` for a complete (exact) answer.  A sharded
    search running in ``allow_partial`` mode sets it to a structured marker
    ``{"answered": [partition_id, ...], "missed": {partition_id: reason}}``
    when some partitions failed to answer — the matches then cover only the
    answering partitions and must never be cached as the exact result.
    """

    matches: Tuple[SemanticMatch, ...]
    visited_partitions: Tuple[str, ...]
    nodes_visited: int
    points_examined: int
    generation: int
    cost: SearchCost = field(default_factory=SearchCost)
    degraded: Optional[Dict[str, object]] = None


class SemTreeIndex:
    """The end-to-end semantic index over triples.

    Parameters
    ----------
    distance:
        The semantic triple distance (Eq. (1)); wire the domain vocabularies
        into its term distance before building the index.
    config:
        Index configuration (FastMap dimensionality is taken from
        ``config.dimensions``).
    cluster:
        Optional simulated cluster; when omitted one is created with
        ``config.max_partitions`` compute nodes.
    """

    def __init__(self, distance: TripleDistance, config: SemTreeConfig | None = None,
                 cluster: SimulatedCluster | None = None):
        self.config = config or SemTreeConfig()
        self.distance = distance
        self.embedder = TripleEmbedder(distance, dimensions=self.config.dimensions)
        self.cluster = cluster or SimulatedCluster(node_count=max(self.config.max_partitions, 1))
        self._tree: Optional[DistributedSemTree] = None
        self._pending: List[Triple] = []
        self._documents_of: Dict[Triple, List[str]] = {}
        #: The triples that label a point in the tree (the set the rule checks).
        self._present: Set[Triple] = set()
        self._generation = 0

    # -- accumulation phase --------------------------------------------------------------

    def add_triple(self, triple: Triple, *, document_id: str | None = None) -> None:
        """Register a triple to be indexed by the next :meth:`build`."""
        self._pending.append(triple)
        if document_id is not None:
            self.register_provenance(triple, document_id)

    def register_provenance(self, triple: Triple, document_id: str) -> bool:
        """Remember that ``triple`` came from ``document_id`` (match dressing).

        Returns ``False`` when the id was already registered for the triple:
        each id is kept once.
        """
        known = self._documents_of.setdefault(triple, [])
        if document_id in known:
            return False
        known.append(document_id)
        return True

    def documents_of(self, triple: Triple) -> Tuple[str, ...]:
        """The document identifiers registered for ``triple`` (may be empty)."""
        return tuple(self._documents_of.get(triple, ()))

    def add_triples(self, triples: Iterable[Triple], *, document_id: str | None = None) -> None:
        """Register many triples."""
        for triple in triples:
            self.add_triple(triple, document_id=document_id)

    def add_document(self, document: Document) -> None:
        """Register every triple of a document, remembering its provenance."""
        self.add_triples(document.triples, document_id=document.document_id)

    def add_collection(self, collection: DocumentCollection) -> None:
        """Register every document of a collection."""
        for document in collection:
            self.add_document(document)

    @property
    def pending_triples(self) -> int:
        """Number of triples registered but not indexed yet."""
        return len(self._pending)

    # -- build phase -----------------------------------------------------------------------

    def build(self) -> "SemTreeIndex":
        """Fit the FastMap space on the registered triples and index them.

        Returns ``self`` so the call can be chained.

        Raises
        ------
        IndexError_
            If fewer than two distinct triples have been registered.
        """
        distinct = dict.fromkeys(self._pending)
        if len(distinct) < 2:
            raise IndexError_("SemTree needs at least two distinct triples to build")
        self.embedder.fit(list(distinct))
        dimensions = self.embedder.output_dimensions
        tree_config = self.config.with_updates(dimensions=dimensions)
        self._tree = DistributedSemTree(tree_config, cluster=self.cluster)
        for triple in distinct:
            self._tree.insert(self._point_for(triple))
        self._present = set(distinct)
        self._pending = []
        self._generation += 1
        return self

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._tree is not None

    @property
    def tree(self) -> DistributedSemTree:
        """The underlying distributed KD-tree.

        Raises
        ------
        IndexError_
            If the index has not been built yet.
        """
        if self._tree is None:
            raise IndexError_("the index has not been built yet; call build() first")
        return self._tree

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every mutation of the built index.

        Result caches (see :mod:`repro.service.cache`) tag entries with the
        generation they were computed at and drop them when it moves on, so
        stale answers are never served after incremental inserts.
        """
        return self._generation

    def _point_for(self, triple: Triple) -> LabeledPoint:
        coordinates = self.embedder.transform(triple)
        return LabeledPoint.of(coordinates, label=triple)

    def embed_query(self, triple: Triple) -> LabeledPoint:
        """Project a query triple into the index's vector space.

        The serving layer embeds each distinct query exactly once on the
        planning thread (the projection touches the semantic-distance memo
        caches), then runs :meth:`tree.k_nearest_state <repro.core.distributed.DistributedSemTree.k_nearest_state>`
        / ``range_query_state`` searches with the resulting point from
        worker threads and dresses the neighbours via :meth:`to_match`.
        """
        if self._tree is None:
            raise IndexError_("the index has not been built yet; call build() first")
        return self._point_for(triple)

    # -- incremental insertion ----------------------------------------------------------------

    def insert_triple(self, triple: Triple, *, document_id: str | None = None) -> None:
        """Insert a triple into an already-built index (dynamic insertion).

        The triple is projected with the existing FastMap pivots; the vector
        space is *not* refitted, matching the paper's incremental regime.
        A triple already present adds no point: a new ``document_id`` only
        extends its provenance, and moves the generation, because cached
        matches carry the provenance they were dressed with.
        """
        tree = self.tree
        if triple in self._present:
            if document_id is not None and self.register_provenance(triple, document_id):
                self._generation += 1
            return
        point = self._point_for(triple)
        if document_id is not None:
            self.register_provenance(triple, document_id)
        tree.insert(point)
        self._present.add(triple)
        self._generation += 1

    def insert_triples(self, triples: Iterable[Triple]) -> None:
        """Insert many triples into an already-built index."""
        for triple in triples:
            self.insert_triple(triple)

    def absorb_points(self, points: Iterable[LabeledPoint]) -> int:
        """Fold already-projected points into the tree, bumping the generation once.

        This is the compaction write path of :mod:`repro.ingest`: the delta
        segment's points were projected at insert time, so folding them is a
        pure tree operation.  Unlike :meth:`insert_triples` the generation
        moves a single step however many points are folded — the result cache
        invalidates at compaction granularity, not per insert.
        """
        count = 0
        for point in points:
            self.tree.insert(point)
            self._present.add(point.label)
            count += 1
        if count:
            self._generation += 1
        return count

    def __len__(self) -> int:
        return len(self._tree) if self._tree is not None else 0

    def __contains__(self, triple: object) -> bool:
        """True when a point labelled with ``triple`` is in the tree."""
        return triple in self._present

    # -- query phase ------------------------------------------------------------------------------

    def k_nearest(self, query: Triple, k: int) -> List[SemanticMatch]:
        """The ``k`` indexed triples semantically closest to the query triple."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return list(self.search_k_nearest(self._point_for(query), k).matches)

    def range_query(self, query: Triple, radius: float) -> List[SemanticMatch]:
        """Every indexed triple within embedded distance ``radius`` of the query."""
        return list(self.search_range(self._point_for(query), radius).matches)

    # -- the serving-layer search protocol ------------------------------------------------

    def search_k_nearest(self, point: LabeledPoint, k: int) -> SearchOutcome:
        """Run a k-nearest tree search for an already-embedded query point.

        This (with :meth:`search_range` and :meth:`overlay_matches`) is the
        protocol the :class:`~repro.service.engine.QueryEngine` serves
        through; :class:`~repro.ingest.ingesting.IngestingIndex` implements
        the same three methods with delta-merged semantics.
        """
        state = self.tree.k_nearest_state(point, k)
        return SearchOutcome(
            matches=tuple(self._to_match(n) for n in state.results.neighbours()),
            visited_partitions=tuple(state.visited_partition_ids),
            nodes_visited=state.nodes_visited,
            points_examined=state.points_examined,
            generation=self._generation,
            cost=state.cost,
        )

    def search_range(self, point: LabeledPoint, radius: float) -> SearchOutcome:
        """Run a range tree search for an already-embedded query point."""
        state = self.tree.range_query_state(point, radius)
        return SearchOutcome(
            matches=tuple(self._to_match(n) for n in state.sorted_results()),
            visited_partitions=tuple(state.visited_partition_ids),
            nodes_visited=state.nodes_visited,
            points_examined=state.points_examined,
            generation=self._generation,
            cost=state.cost,
        )

    def overlay_matches(self, kind: str, point: LabeledPoint, parameter: float,
                        matches: Tuple[SemanticMatch, ...],
                        generation: int) -> Optional[Tuple[SemanticMatch, ...]]:
        """Refresh search results against writes that landed after ``generation``.

        A plain index has no write path besides :meth:`insert_triple` (which
        bumps the generation and thus invalidates cached results wholesale),
        so the matches are already current: they are returned unchanged.  An
        :class:`~repro.ingest.ingesting.IngestingIndex` merges the live delta
        segment here, and returns ``None`` when a compaction raced with the
        read (the engine then re-runs the search under the new generation).
        """
        return tuple(matches)

    def to_match(self, neighbour: Neighbour) -> SemanticMatch:
        """Dress a raw tree neighbour as a :class:`SemanticMatch` with provenance."""
        return self._to_match(neighbour)

    def _to_match(self, neighbour: Neighbour) -> SemanticMatch:
        triple = neighbour.point.label
        documents = tuple(self._documents_of.get(triple, ()))
        return SemanticMatch(triple, neighbour.distance, documents)

    # -- introspection -----------------------------------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """Statistics of the underlying distributed tree plus embedding info."""
        stats = dict(self.tree.statistics())
        stats["embedding_dimensions"] = self.embedder.output_dimensions
        return stats

    def __repr__(self) -> str:
        size = len(self) if self.is_built else f"pending={len(self._pending)}"
        return f"SemTreeIndex({size}, dimensions={self.config.dimensions})"
