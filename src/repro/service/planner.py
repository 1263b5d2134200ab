"""Query normalisation and routing for the serving layer.

The planner is the front half of the
:class:`~repro.service.engine.QueryEngine`: it embeds each distinct query
triple of a batch into the index's vector space exactly once, classifies the
query (k-NN, range, optionally pattern-filtered) and derives the cache key.
Everything downstream (cache lookups, tree searches) works on
:class:`PlannedQuery` objects and never touches the semantic distance again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.core.point import LabeledPoint
from repro.core.semtree import SearchOutcome, SemanticMatch
from repro.errors import QueryError
from repro.rdf.triple import Triple, TriplePattern

__all__ = ["QueryKind", "QuerySpec", "PlannedQuery", "QueryPlanner", "ServableIndex"]


class ServableIndex(Protocol):
    """What the serving layer needs from an index.

    :class:`~repro.core.semtree.SemTreeIndex` implements it directly;
    :class:`~repro.ingest.ingesting.IngestingIndex` implements it with
    delta-merged semantics so the same engine serves a live write stream.
    """

    @property
    def generation(self) -> int:
        """Cache epoch: results computed at an older generation are stale."""
        ...

    def embed_query(self, triple: Triple) -> LabeledPoint:
        """Project a query triple into the index's vector space."""
        ...

    def search_k_nearest(self, point: LabeledPoint, k: int) -> SearchOutcome:
        """The cacheable side of a k-NN read."""
        ...

    def search_range(self, point: LabeledPoint, radius: float) -> SearchOutcome:
        """The cacheable side of a range read."""
        ...

    def overlay_matches(self, kind: str, point: LabeledPoint, parameter: float,
                        matches: Tuple[SemanticMatch, ...],
                        generation: int) -> Optional[Tuple[SemanticMatch, ...]]:
        """Bring matches computed at ``generation`` up to date (None = redo)."""
        ...


class QueryKind(Enum):
    """The two retrieval modes of the paper, as served by the engine."""

    KNN = "knn"
    RANGE = "range"


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One client query: a triple plus the retrieval parameters.

    Attributes
    ----------
    triple:
        The query triple, projected into the embedded space at planning time.
    kind:
        k-NN or range retrieval.
    k:
        Number of neighbours for k-NN queries.
    radius:
        Embedded-space radius for range queries.
    pattern:
        Optional triple pattern; matches not satisfying it are filtered out
        of the result (k-NN queries over-fetch to compensate).
    deadline:
        Optional per-query time budget in seconds, enforced by the engine.
    allow_partial:
        Opt-in graceful degradation for sharded serving: when partitions
        fail, accept an answer from the surviving ones (marked with a
        structured ``degraded`` field) instead of an error.  The default
        stays fail-loud, and a local index ignores the flag (it has no
        partitions to lose).  Degraded results are never cached.
    """

    triple: Triple
    kind: QueryKind = QueryKind.KNN
    k: int = 3
    radius: float = 0.0
    pattern: Optional[TriplePattern] = None
    deadline: Optional[float] = None
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if self.kind is QueryKind.KNN and self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if self.kind is QueryKind.RANGE and self.radius < 0:
            raise QueryError("the range radius must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise QueryError("a deadline must be a positive number of seconds")

    @classmethod
    def k_nearest(cls, triple: Triple, k: int = 3, *,
                  pattern: TriplePattern | None = None,
                  deadline: float | None = None,
                  allow_partial: bool = False) -> "QuerySpec":
        """A k-NN query spec."""
        return cls(triple=triple, kind=QueryKind.KNN, k=k, pattern=pattern,
                   deadline=deadline, allow_partial=allow_partial)

    @classmethod
    def range_query(cls, triple: Triple, radius: float, *,
                    pattern: TriplePattern | None = None,
                    deadline: float | None = None,
                    allow_partial: bool = False) -> "QuerySpec":
        """A range query spec."""
        return cls(triple=triple, kind=QueryKind.RANGE, radius=radius,
                   pattern=pattern, deadline=deadline,
                   allow_partial=allow_partial)


@dataclass(frozen=True, slots=True)
class PlannedQuery:
    """A spec with its embedded query point and result-cache key.

    The cache key covers everything that determines the result — the query's
    *embedded coordinates* (not the triple: distinct triples that project to
    the same point are interchangeable), the retrieval parameters and the
    pattern — but not the deadline, which only shapes execution.
    """

    spec: QuerySpec
    point: LabeledPoint
    cache_key: Tuple[Hashable, ...]


class QueryPlanner:
    """Plans query specs against one built, servable index."""

    def __init__(self, index: ServableIndex):
        self.index = index

    def plan(self, spec: QuerySpec) -> PlannedQuery:
        """Embed the query triple once and derive its cache key."""
        return self._plan_with_point(spec, self.index.embed_query(spec.triple))

    @staticmethod
    def _plan_with_point(spec: QuerySpec, point: LabeledPoint) -> PlannedQuery:
        if spec.kind is QueryKind.KNN:
            parameters: Tuple[Hashable, ...] = ("k", spec.k)
        else:
            parameters = ("radius", spec.radius)
        cache_key = (spec.kind.value, point.coordinates, parameters, spec.pattern)
        return PlannedQuery(spec=spec, point=point, cache_key=cache_key)

    def plan_batch(self, specs: Sequence[QuerySpec]) -> List[PlannedQuery]:
        """Plan a batch: one :class:`PlannedQuery` per spec, in input order.

        Each distinct *triple* in the batch is embedded exactly once (the
        projection is the expensive part — O(pivots) semantic-distance
        evaluations), however many specs reference it.
        """
        point_of: dict = {}
        planned: List[PlannedQuery] = []
        for spec in specs:
            point = point_of.get(spec.triple)
            if point is None:
                point = point_of[spec.triple] = self.index.embed_query(spec.triple)
            planned.append(self._plan_with_point(spec, point))
        return planned
