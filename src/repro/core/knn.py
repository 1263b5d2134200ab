"""Search states — Table I of the paper, and its range-search counterpart.

The distributed k-nearest search algorithm is described by the paper through
its input parameters (Table I):

=============  =====  =======================================================
Field          Ref.   Possible values
=============  =====  =======================================================
Node Status    S      Not Visited (Nv); Left Visited (Lv); Right Visited (Rv);
                      All Visited (Av)
Number of      K      the number of points we have to find
points
Distance       D      the distance between the interested point and the most
                      distant one in the result set
Result-set     Rs     a structure able to store in memory the k points of
                      interest found
Point          P      the point of interest
=============  =====  =======================================================

This module implements those pieces: :class:`NodeStatus`, the bounded
:class:`ResultSet` (``Rs``), and :class:`KSearchState` which bundles ``K``,
``P``, ``Rs`` and exposes the two sub-conditions of the backward visit
(distance comparison and replenishment check).  :class:`RangeSearchState`
is the same bundle for a range search: ``P``, the fixed ``D`` and the
unbounded result list.  Both carry the descent bound
(:func:`repro.core.kernels.split_children`) of the subtree a traversal is
about to enter, so it travels with the state from partition to partition.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List, Optional, Set, Tuple

import numpy as np

from repro.core.cost import SearchCost
from repro.core.point import LabeledPoint, euclidean_distance
from repro.errors import QueryError

__all__ = ["NodeStatus", "Neighbour", "ResultSet", "KSearchState", "RangeSearchState"]


class NodeStatus(Enum):
    """Visit status of a node during the backward phase of k-search (Table I)."""

    NOT_VISITED = "Nv"
    LEFT_VISITED = "Lv"
    RIGHT_VISITED = "Rv"
    ALL_VISITED = "Av"


@dataclass(frozen=True, slots=True)
class Neighbour:
    """One entry of the result set: a stored point and its distance to ``P``."""

    point: LabeledPoint
    distance: float

    @property
    def label(self) -> Any:
        """Convenience accessor for the stored point's label."""
        return self.point.label


class ResultSet:
    """The paper's ``Rs``: a bounded max-heap of the ``k`` closest points found.

    ``D`` (Table I) is the distance between the query point and the most
    distant point currently in the result set; it is exposed by
    :attr:`current_radius`.
    """

    def __init__(self, k: int):
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self.k = k
        # Max-heap via negated distances.  The negated arrival counter makes
        # ties fully first-come-first-retained: an incoming candidate equal
        # to the current radius is rejected (strict ``<`` below), and when a
        # closer candidate displaces the worst entry, the *latest-offered* of
        # equally-distant maxima is evicted first.  Together these give one
        # invariant — among equal distances, the earliest offer always
        # survives — which the vectorized kernel reproduces by offering its
        # preselected rows (boundary ties included) in bucket order.
        self._heap: List[Tuple[float, int, Neighbour]] = []
        self._counter = itertools.count()

    def offer(self, point: LabeledPoint, distance: float) -> bool:
        """Offer a candidate; returns True when it enters the result set."""
        if distance < 0:
            raise QueryError("distances must be non-negative")
        neighbour = Neighbour(point, distance)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, -next(self._counter), neighbour))
            return True
        if distance < self.current_radius:
            heapq.heapreplace(self._heap, (-distance, -next(self._counter), neighbour))
            return True
        return False

    @property
    def current_radius(self) -> float:
        """``D``: distance to the farthest retained point (∞ while not full)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    @property
    def is_full(self) -> bool:
        """True once ``k`` points have been retained (Rs.length() >= K)."""
        return len(self._heap) >= self.k

    def __len__(self) -> int:
        return len(self._heap)

    def neighbours(self) -> List[Neighbour]:
        """The retained neighbours, closest first."""
        return sorted((entry[2] for entry in self._heap), key=lambda n: n.distance)

    def points(self) -> List[LabeledPoint]:
        """The retained points, closest first."""
        return [neighbour.point for neighbour in self.neighbours()]

    def labels(self) -> List[Any]:
        """The labels of the retained points, closest first."""
        return [neighbour.label for neighbour in self.neighbours()]

    def merge(self, other: "ResultSet") -> None:
        """Fold another result set into this one (used when merging partition results)."""
        for neighbour in other.neighbours():
            self.offer(neighbour.point, neighbour.distance)

    def __repr__(self) -> str:
        return f"ResultSet(k={self.k}, found={len(self)}, radius={self.current_radius:.3f})"


@dataclass
class KSearchState:
    """The bundled state of one k-nearest search (the paper's Table I).

    Attributes
    ----------
    query:
        ``P``, the point of interest.
    k:
        ``K``, the number of points to find.
    results:
        ``Rs``, the bounded result set.
    nodes_visited / points_examined / partitions_visited:
        Reproduction-side counters used by tests and benchmarks.
    cost:
        Fine-grained work counters (:class:`~repro.core.cost.SearchCost`):
        exact distance computations, prefilter prunes, kernel batches.
    entry_bound:
        ``(rd, offsets)`` of the subtree about to be entered: the
        per-dimension offsets between ``P`` and the subtree's cell and their
        squared sum, a lower bound on the squared distance to anything
        stored there.  Zero for a search that starts at a root.
    """

    query: LabeledPoint
    k: int
    results: ResultSet = field(init=False)
    nodes_visited: int = 0
    points_examined: int = 0
    partitions_visited: int = 0
    cost: SearchCost = field(default_factory=SearchCost)
    visited_partition_ids: List[str] = field(default_factory=list)
    _visited_partition_set: Set[str] = field(default_factory=set, init=False, repr=False)
    _query_array: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    entry_bound: Tuple[float, List[float]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.results = ResultSet(self.k)
        self._visited_partition_set = set(self.visited_partition_ids)
        self.entry_bound = (0.0, [0.0] * self.query.dimensions)

    def query_array(self) -> np.ndarray:
        """``P``'s coordinates as a NumPy vector, built once per search.

        The vectorized leaf kernels subtract this from every bucket matrix;
        caching it here keeps the per-leaf fixed cost down.
        """
        if self._query_array is None:
            self._query_array = np.asarray(self.query.coordinates, dtype=np.float64)
        return self._query_array

    def note_partition(self, partition_id: str) -> None:
        """Record the identity of a partition the search entered.

        ``partitions_visited`` keeps the paper's plain counter; the identities
        feed the serving layer's per-partition load metrics.  The membership
        check runs against a set (a deep search re-enters partitions many
        times); ``visited_partition_ids`` preserves first-seen order.
        """
        if partition_id not in self._visited_partition_set:
            self._visited_partition_set.add(partition_id)
            self.visited_partition_ids.append(partition_id)

    # -- the two sub-conditions of the backward visit --------------------------------

    def must_visit_other_side(self, split_index: int, split_value: float) -> bool:
        """The paper's disjunction deciding whether to descend the unvisited subtree.

        The former sub-condition compares distances
        (``|max(Rs[SI]) - P[SI]| > |P[SI] - Sv|`` — i.e. the splitting plane
        is closer than the current worst neighbour), the latter checks the
        replenishment of ``Rs`` against ``k`` (``Rs.length() < K``).

        This is the rule as published.  The traversals apply
        :func:`repro.core.kernels.within_reach`, which tightens the distance
        comparison with the accumulated descent bound and therefore visits a
        subset of the subtrees this rule would, in the same order.
        """
        if not self.results.is_full:
            return True
        plane_distance = abs(self.query[split_index] - split_value)
        return plane_distance < self.results.current_radius

    def examine(self, point: LabeledPoint) -> bool:
        """Offer one stored point to the result set; returns True if retained."""
        self.points_examined += 1
        self.cost.distance_computations += 1
        return self.results.offer(point, euclidean_distance(self.query, point))

    def examine_bucket(self, points: List[LabeledPoint]) -> int:
        """Offer every point of a leaf bucket; returns how many were retained.

        This is the ``"scalar"`` scan kernel — the per-point correctness
        oracle.  The vectorized path is :func:`repro.core.kernels.knn_scan_node`.
        """
        self.cost.buckets_scanned += 1
        self.cost.scalar_fallbacks += 1
        return sum(1 for point in points if self.examine(point))


class RangeSearchState:
    """Mutable state of one range search (results + counters)."""

    def __init__(self, query: LabeledPoint, radius: float):
        if radius < 0:
            raise QueryError("the range distance D must be non-negative")
        self.query = query
        self.radius = radius
        self.results: List[Neighbour] = []
        self.nodes_visited = 0
        self.points_examined = 0
        self.partitions_visited = 0
        self.cost = SearchCost()
        self.visited_partition_ids: List[str] = []
        self._visited_partition_set: Set[str] = set()
        self._query_array: Optional[np.ndarray] = None
        #: See :attr:`KSearchState.entry_bound`.
        self.entry_bound: Tuple[float, List[float]] = (0.0, [0.0] * query.dimensions)

    def query_array(self) -> np.ndarray:
        """The query coordinates as a NumPy vector, built once per search."""
        if self._query_array is None:
            self._query_array = np.asarray(self.query.coordinates, dtype=np.float64)
        return self._query_array

    def note_partition(self, partition_id: str) -> None:
        """Record the identity of a partition the search entered (load metrics).

        Membership is checked against a set; ``visited_partition_ids`` keeps
        first-seen order for the serving layer's per-partition load metrics.
        """
        if partition_id not in self._visited_partition_set:
            self._visited_partition_set.add(partition_id)
            self.visited_partition_ids.append(partition_id)

    def examine_point(self, point: LabeledPoint) -> bool:
        """Test one stored point against the ball; returns True when it is a result.

        The inclusion rule is ``distance <= radius``, inclusive — the
        delta-segment scan of :mod:`repro.ingest.delta` applies the same
        rule, so both sides of a merged read agree on boundary points.  This
        is the ``"scalar"`` scan kernel — the per-point correctness oracle;
        the vectorized path is :func:`repro.core.kernels.flush_range_leaves`.
        """
        self.points_examined += 1
        self.cost.distance_computations += 1
        distance = euclidean_distance(self.query, point)
        if distance <= self.radius:
            self.results.append(Neighbour(point, distance))
            return True
        return False

    def sorted_results(self) -> List[Neighbour]:
        """The collected results, closest first."""
        return sorted(self.results, key=lambda neighbour: neighbour.distance)
