"""Search kernels: the pruned descent and the vectorized leaf scans.

Every tree in the codebase — the sequential :class:`~repro.core.kdtree.KDTree`,
the guided distributed traversal and the shard-local partition scan — runs
the same two loops, :func:`knn_descend` and :func:`range_descend`; the tree
kinds differ only in what a remote child means (an error, a message to
another partition, or nothing).  The loops prune whole subtrees with the
incremental-distance bound (:func:`split_children`, :func:`within_reach`)
and hand the surviving leaves to the scans below.

Every search bottoms out in the same operation: compare a
query point against a *bucket* of stored points — a KD-tree leaf, a
distributed partition's leaf, the live-ingest delta segment, or the whole
corpus in the linear-scan baseline.  The scalar implementation walks the
bucket one point at a time (one ``math.dist`` call and one heap offer per
point); this module batches the whole bucket into a contiguous NumPy matrix
and computes every distance in a single vectorized pass.

Exactness
---------
The NumPy kernels are *pruned* but **exact**: they return the same points
with the same ``math.dist`` distances as the scalar path.

* The vectorized pass computes **squared** distances only, and uses them
  only to *prune* (compare against the squared radius, with a slack so a
  float rounding can never drop a true hit) and to *select* (the rows that
  can be among the ``k`` closest, in bucket order).  No ``np.sqrt`` is ever
  taken.
* Every retained point's distance is then recomputed with
  :func:`~repro.core.point.euclidean_distance` (``math.dist``) and
  re-checked by the exact acceptance rule (`ResultSet.offer`'s strict ``<``
  for k-NN, the inclusive ``<=`` for range).  Over-inclusion by the slack is
  harmless; reported distances are bit-identical to the scalar path.
* Survivors are offered in bucket order, exactly like the scalar loop, and
  :class:`~repro.core.knn.ResultSet` retains the first offer among equal
  distances, so tie-breaking matches the scalar path too.
* Squared distances that round to the same value — or underflow to zero —
  can hide a strict order between true distances, so the top-k preselection
  keeps *every* row within the slack of the k-th smallest square
  (:func:`_closest_rows`) and the exact distances settle the boundary.

The scalar path stays alive behind ``SemTreeConfig.scan_kernel = "scalar"``
as the correctness oracle; ``tests/core/test_kernels.py`` asserts the two
kernels agree across bucket sizes, dimensionalities, duplicate-coordinate
buckets and the ingest tree ∪ delta merge path.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.knn import Neighbour
from repro.core.node import ChildRef, Node, RemoteChild
from repro.core.point import euclidean_distance
from repro.errors import IndexError_

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.cost import SearchCost
    from repro.core.knn import KSearchState, RangeSearchState
    from repro.core.point import LabeledPoint

__all__ = [
    "SCAN_KERNELS",
    "DEFAULT_SCAN_KERNEL",
    "validate_scan_kernel",
    "coordinate_matrix",
    "squared_distances",
    "squared_bound",
    "split_children",
    "within_reach",
    "knn_descend",
    "range_descend",
    "knn_scan_node",
    "flush_range_leaves",
    "linear_knn",
    "linear_range",
]

#: The recognised values of ``SemTreeConfig.scan_kernel``.
SCAN_KERNELS: Tuple[str, ...] = ("numpy", "scalar")

#: Kernel used when nothing is configured.
DEFAULT_SCAN_KERNEL = "numpy"

#: Row counts below these fall back to the scalar loop even under the
#: ``"numpy"`` kernel: a NumPy pass costs a few microseconds of fixed
#: dispatch overhead, which a handful of ``math.dist`` calls undercuts.  The
#: k-NN scan amortises earlier because vectorization also caps the heap
#: offers at ``k`` (top-k preselection); a range scan saves only the
#: distance arithmetic, so it needs more rows to win — counted over all the
#: leaves one flush gathered, not per bucket.
KNN_VECTOR_MIN = 8
RANGE_VECTOR_MIN = 32

#: Slack applied to squared-radius pre-filters.  The vectorized squared
#: distance, the incremental subtree bound and the scalar ``math.dist`` can
#: disagree by a few ulps — relatively, or absolutely once squares reach the
#: subnormal range and underflow; the slack keeps every pre-filter a strict
#: superset of the scalar hits, and every survivor is re-checked with its
#: exact distance afterwards.
_PREFILTER_SLACK = 1.0 + 1e-12
_PREFILTER_FLOOR = 1e-300

#: A remote child met by a descent: ``None`` skips it (partition-local scan).
RemoteHook = Optional[Callable[[RemoteChild], None]]


def validate_scan_kernel(name: str) -> str:
    """Return ``name`` when it is a known kernel; raise otherwise."""
    if name not in SCAN_KERNELS:
        raise IndexError_(
            f"unknown scan kernel {name!r}; expected one of {list(SCAN_KERNELS)}"
        )
    return name


def coordinate_matrix(points: Sequence["LabeledPoint"]) -> np.ndarray:
    """Stack a bucket's coordinates into one contiguous ``(n, d)`` float matrix."""
    return np.array([point.coordinates for point in points], dtype=np.float64)


def squared_distances(matrix: np.ndarray, query_coords: Sequence[float]) -> np.ndarray:
    """Squared Euclidean distance from every matrix row to the query point.

    Raises the library's :class:`IndexError_` on a dimension mismatch, like
    the scalar :func:`~repro.core.point.euclidean_distance` does — callers
    must never see a raw NumPy broadcast error.  The tree traversals check
    the query's dimensionality once at their entry points and call
    :func:`_squared_rows` per leaf instead.
    """
    if not isinstance(query_coords, np.ndarray):
        query_coords = np.asarray(query_coords, dtype=np.float64)
    if matrix.shape[1] != query_coords.shape[0]:
        raise IndexError_(
            f"dimension mismatch: {matrix.shape[1]} vs {query_coords.shape[0]}"
        )
    return _squared_rows(matrix, query_coords)


def _squared_rows(matrix: np.ndarray, query_array: np.ndarray) -> np.ndarray:
    diff = matrix - query_array
    return np.einsum("ij,ij->i", diff, diff)


def squared_bound(radius: float) -> float:
    """The squared distance at and beyond which nothing lies within ``radius``.

    Rows and subtrees are discarded on ``squared >= squared_bound(radius)``
    only; the slack keeps ``squared == radius²`` (a boundary hit) inside.
    """
    return radius * radius * _PREFILTER_SLACK + _PREFILTER_FLOOR


# -- pruned descent (shared by every tree) ----------------------------------------------
#
# A search carries, for the cell of the node it stands on, the per-dimension
# offsets between the query and that cell and their squared sum ``rd`` — a
# lower bound on the squared distance to anything stored below the node.
# Crossing a splitting plane to the far child replaces one offset, so the
# bound is maintained in O(1) per routing node (the classical
# incremental-distance KD-tree search).


def split_children(node: Node, coords: Sequence[float], rd: float,
                   offsets: List[float],
                   ) -> Tuple[ChildRef, ChildRef, float, float, List[float]]:
    """One routing step: ``(near, far, plane, far_rd, far_offsets)``.

    ``near`` is the insertion-rule child (``P[Sr] <= Sv`` descends left) and
    inherits ``(rd, offsets)`` unchanged; ``plane`` is the signed offset
    ``P[Sr] - Sv`` to the splitting plane, which becomes the far side's
    offset on that dimension.  A routing node with a missing child fails
    loudly, never yields a silently-partial search.
    """
    split = node.split_index
    plane = coords[split] - node.split_value  # type: ignore[index, operator]
    if plane <= 0.0:
        near, far = node.left, node.right
    else:
        near, far = node.right, node.left
    if near is None or far is None:
        raise IndexError_("routing node with a missing child")
    # The far cell lies inside the current one, so |plane| >= |old|: the
    # bound only ever grows, by a non-negative term.
    old = offsets[split]  # type: ignore[index]
    far_offsets = offsets.copy()  # shared with the near side: never written in place
    far_offsets[split] = plane  # type: ignore[index]
    return near, far, plane, rd + (plane * plane - old * old), far_offsets


def within_reach(plane: float, rd: float, radius: float) -> bool:
    """Whether a far subtree can still hold a point *strictly* closer than ``radius``.

    The k-search's backward test: the paper's one-plane comparison
    (``|P[SI] - Sv| < D``, kept so the visited leaves stay a subset of the
    plane rule's even at exact ties — a result set never takes a point at
    exactly ``D``) tightened by the accumulated bound ``rd``.  An unfilled
    result set has an infinite radius, which reaches everything.
    """
    return abs(plane) < radius and not rd >= squared_bound(radius)


def knn_descend(root: Node, state: "KSearchState", kernel: str,
                on_remote: RemoteHook = None) -> None:
    """The k-search over the local nodes below ``root`` (Table I's S, K, D, Rs, P).

    Forward descent to the candidate leaf, then the backward visit: the far
    side of each routing node waits on the stack and is entered only if it
    is still :func:`within_reach` of ``D`` once the near side is done.  The
    bound of ``root``'s own cell is read from ``state.entry_bound`` and
    written there before a remote child is handed to ``on_remote``, so it
    rides with the state across partitions.
    """
    coords = state.query.coordinates
    results = state.results
    nodes = 0
    rd, offsets = state.entry_bound
    # Entries: (child, plane, rd, offsets); ``plane is None`` marks a near
    # child, which is entered unconditionally.
    stack: List[tuple] = [(root, None, rd, offsets)]
    while stack:
        child, plane, rd, offsets = stack.pop()
        if plane is not None and not within_reach(plane, rd, results.current_radius):
            continue
        if type(child) is not Node:
            if on_remote is not None:
                state.nodes_visited += nodes
                nodes = 0
                state.entry_bound = (rd, offsets)
                on_remote(child)
            continue
        nodes += 1
        if child.split_index is None:
            knn_scan_node(state, child, kernel)
            continue
        near, far, plane, far_rd, far_offsets = split_children(child, coords, rd, offsets)
        stack.append((far, plane, far_rd, far_offsets))
        stack.append((near, None, rd, offsets))
    state.nodes_visited += nodes


def range_descend(root: Node, state: "RangeSearchState", kernel: str,
                  on_remote: RemoteHook = None) -> None:
    """The range search over the local nodes below ``root``.

    Both children where the ball reaches across the splitting plane — the
    far side's bound is inside :func:`squared_bound`, which implies the
    paper's ``|P[SI] - Sv| <= D`` — and the insertion-rule child otherwise.
    The test is inclusive like the hit rule ``distance <= D``: a point lying
    on the plane, exactly ``D`` away, is a hit.  The leaves met are gathered
    and scanned together (:func:`flush_range_leaves`) — before any remote
    hop, so results keep traversal order across partitions.
    """
    coords = state.query.coordinates
    bound = squared_bound(state.radius)
    nodes = 0
    leaves: List[Node] = []
    stack: List[tuple] = [(root, *state.entry_bound)]
    while stack:
        child, rd, offsets = stack.pop()
        if type(child) is not Node:
            if on_remote is not None:
                flush_range_leaves(state, leaves, kernel)
                leaves = []
                state.nodes_visited += nodes
                nodes = 0
                state.entry_bound = (rd, offsets)
                on_remote(child)
            continue
        nodes += 1
        if child.split_index is None:
            leaves.append(child)
            continue
        near, far, plane, far_rd, far_offsets = split_children(child, coords, rd, offsets)
        if far_rd >= bound:
            stack.append((near, rd, offsets))
        elif plane <= 0.0:  # near is left; left is pushed first, right searched first
            stack.append((near, rd, offsets))
            stack.append((far, far_rd, far_offsets))
        else:
            stack.append((far, far_rd, far_offsets))
            stack.append((near, rd, offsets))
    flush_range_leaves(state, leaves, kernel)
    state.nodes_visited += nodes


# -- k-NN -------------------------------------------------------------------------------


def knn_scan_node(state: "KSearchState", node: "Node", kernel: str) -> int:
    """Examine one leaf's bucket for a k-NN search; returns how many were retained.

    The ``"scalar"`` kernel defers to :meth:`KSearchState.examine_bucket`
    (the per-point oracle); the ``"numpy"`` kernel batches the bucket through
    the node's cached coordinate matrix.  Buckets below the vectorization
    cutoff skip the matrix build entirely.
    """
    if kernel == "scalar" or len(node.bucket) < KNN_VECTOR_MIN:
        return state.examine_bucket(node.bucket)
    return knn_scan_points(state, node.bucket, node.bucket_matrix())


def _closest_rows(sq: np.ndarray, k: int) -> np.ndarray:
    """Indices, ascending, of every row that can be among the ``k`` closest.

    All rows whose square is within the prefilter slack of the ``k``-th
    smallest: exactly ``k`` rows unless squares tie (or collapse) at the
    boundary, where the exact distances must decide.  A row left out is
    strictly farther than ``k`` rows kept, so it could never be retained.
    """
    kth = np.partition(sq, k - 1)[k - 1]
    return np.nonzero(sq <= kth * _PREFILTER_SLACK + _PREFILTER_FLOOR)[0]


def knn_scan_points(state: "KSearchState", points: Sequence["LabeledPoint"],
                    matrix: Optional[np.ndarray] = None) -> int:
    """Vectorized k-NN bucket scan: one distance pass, heap offers only for winners.

    All bucket squared distances are computed in one shot, then two exact
    pruning steps bound the Python-level work:

    1. *radius pre-filter* — candidates are compared against the current
       radius on squared distances (a safe superset, see the module
       docstring);
    2. *top-k preselection* — among the survivors only the ``k`` closest
       (plus boundary ties, :func:`_closest_rows`) are offered to the heap.
       A bucket point outside its own bucket's top-``k`` loses every
       comparison and tie-break against those ``k`` offered points, so it
       can never be part of the final result set — skipping it changes
       nothing.

    The winners get their exact ``math.dist`` distance and are offered in
    bucket order; the ``points_examined`` counter is bulk-updated.  The
    caller vouches for the query's dimensionality (the traversal entry
    points check it).  Returns the number of offers the result set accepted.
    """
    n = len(points)
    if n == 0:
        return 0
    if n < KNN_VECTOR_MIN:
        return state.examine_bucket(points)
    if matrix is None:
        matrix = coordinate_matrix(points)
    sq = _squared_rows(matrix, state.query_array())
    state.points_examined += n
    cost = state.cost
    cost.kernel_batches += 1
    cost.buckets_scanned += 1
    cost.squared_distance_rows += n
    radius = state.results.current_radius
    if radius != float("inf"):
        mask = sq <= squared_bound(radius)
        # Backward visits mostly find nothing; count before allocating the
        # index array so the no-survivor case exits after one scan.
        survivors = int(np.count_nonzero(mask))
        cost.pruned_by_radius += n - survivors
        if not survivors:
            return 0
        candidates = np.nonzero(mask)[0]
        candidate_sq = sq[candidates]
    else:
        candidates = None
        candidate_sq = sq
    k = state.results.k
    if candidate_sq.size > k:
        top = _closest_rows(candidate_sq, k)
        candidates = top if candidates is None else candidates[top]
    indices = range(n) if candidates is None else candidates.tolist()
    query = state.query
    retained = 0
    offer = state.results.offer
    for index in indices:
        point = points[index]
        cost.distance_computations += 1
        if offer(point, euclidean_distance(query, point)):
            retained += 1
    return retained


# -- range ------------------------------------------------------------------------------


def flush_range_leaves(state: "RangeSearchState", leaves: Sequence[Node],
                       kernel: str) -> None:
    """Scan the leaves a range traversal gathered, as one batch.

    The ``"numpy"`` kernel runs a single vectorized pass over the leaves'
    concatenated cached matrices; hits are appended to ``state.results`` in
    traversal × bucket order, exactly where the per-leaf ``"scalar"`` oracle
    (:meth:`RangeSearchState.examine_point` per point) puts them, and both
    count the same ``points_examined``.
    """
    if not leaves:
        return
    cost = state.cost
    cost.buckets_scanned += len(leaves)
    rows = sum(len(leaf.bucket) for leaf in leaves)
    if kernel == "scalar" or rows < RANGE_VECTOR_MIN:
        cost.scalar_fallbacks += len(leaves)
        examine = state.examine_point
        for leaf in leaves:
            for point in leaf.bucket:
                examine(point)
        return
    if len(leaves) == 1:
        points: Sequence["LabeledPoint"] = leaves[0].bucket
        matrix = leaves[0].bucket_matrix()
    else:
        filled = [leaf for leaf in leaves if leaf.bucket]
        points = list(chain.from_iterable(leaf.bucket for leaf in filled))
        matrix = np.concatenate([leaf.bucket_matrix() for leaf in filled])
    state.points_examined += rows
    sq = _squared_rows(matrix, state.query_array())
    state.results.extend(_range_hits(state.query, state.radius, points, sq, cost))


def _range_hits(query: "LabeledPoint", radius: float,
                points: Sequence["LabeledPoint"], sq: np.ndarray,
                cost: Optional["SearchCost"] = None) -> List[Neighbour]:
    """The rows of ``points`` within ``radius``, given their squared distances."""
    mask = sq <= squared_bound(radius)
    # Most leaves of a selective range query hold no hits at all; count
    # before allocating the index array so that case exits after one scan.
    survivors = int(np.count_nonzero(mask))
    if cost is not None:
        cost.kernel_batches += 1
        cost.squared_distance_rows += len(points)
        cost.pruned_by_radius += len(points) - survivors
        cost.distance_computations += survivors
    found: List[Neighbour] = []
    if survivors:
        for index in np.nonzero(mask)[0].tolist():
            point = points[index]
            # The slacked squared pre-filter may over-include; the exact
            # ``math.dist`` distance decides, keeping the inclusive rule and
            # the reported values identical to the scalar path.
            distance = euclidean_distance(query, point)
            if distance <= radius:
                found.append(Neighbour(point, distance))
    return found


# -- whole-corpus scans (linear baseline, delta segment) --------------------------------


def linear_knn(points: Sequence["LabeledPoint"], query: "LabeledPoint", k: int,
               matrix: Optional[np.ndarray] = None,
               kernel: str = DEFAULT_SCAN_KERNEL) -> List[Neighbour]:
    """Exact k-NN over a full point set, closest first.

    Under the ``"numpy"`` kernel this is a single matrix pass: the rows that
    can be among the ``k`` closest (:func:`_closest_rows`) get their exact
    ``math.dist`` distance, and a stable sort on those reproduces the scalar
    tie order (insertion order among equal distances).  ``kernel="scalar"``
    (or a set below the vectorization cutoff) runs the per-point oracle loop.
    """
    n = len(points)
    if n == 0:
        return []
    if kernel == "scalar" or n < KNN_VECTOR_MIN:
        indices: Sequence[int] = range(n)
    else:
        if matrix is None:
            matrix = coordinate_matrix(points)
        sq = squared_distances(matrix, query.coordinates)
        indices = _closest_rows(sq, k).tolist() if n > k else range(n)
    found = [Neighbour(points[index], euclidean_distance(query, points[index]))
             for index in indices]
    found.sort(key=lambda neighbour: neighbour.distance)
    return found[:k]


def linear_range(points: Sequence["LabeledPoint"], query: "LabeledPoint", radius: float,
                 matrix: Optional[np.ndarray] = None,
                 kernel: str = DEFAULT_SCAN_KERNEL) -> List[Neighbour]:
    """Exact range query over a full point set, closest first.

    Results come back sorted by distance (stable, so ties keep insertion
    order), identical under both kernels; the rule is the inclusive
    ``distance <= radius``.
    """
    if kernel == "scalar" or len(points) < RANGE_VECTOR_MIN:
        found = [Neighbour(point, distance) for point in points
                 if (distance := euclidean_distance(query, point)) <= radius]
    else:
        if matrix is None:
            matrix = coordinate_matrix(points)
        found = _range_hits(query, radius, points,
                            squared_distances(matrix, query.coordinates))
    found.sort(key=lambda neighbour: neighbour.distance)
    return found
