"""The sequential bucket KD-tree.

This is the single-partition building block of SemTree and, on its own, the
baseline used by the paper's *sequential* experiments (Figures 4 and 6).  It
follows the paper's structural choices:

* data lives only in leaf buckets of size ``Bs``;
* routing nodes carry the split index ``Sr`` and split value ``Sv``; the
  point descends left when ``P[Sr] <= Sv``;
* a saturated leaf is converted into a routing node whose two fresh children
  receive its points;
* k-nearest search descends to the candidate leaf and backtracks, visiting
  the sibling subtree only when the result set is not yet full or the
  subtree can still hold a closer point than the current worst neighbour
  (the paper's disjunction, its plane test tightened by the bound
  accumulated along the descent);
* range search descends both children when the ball reaches the plane
  (``|P[SI] - Sv| <= D``, inclusive like the hit rule) and the far side
  beyond it, one child otherwise, then merges results on the way back.

Both searches are the shared loops of :mod:`repro.core.kernels`.  All
traversals are iterative (explicit stacks): the paper's "totally
unbalanced (chain)" configuration produces trees whose depth equals the
number of points, which would overflow Python's recursion limit.

The module also offers two bulk builders used by the benchmarks:
:meth:`KDTree.build_balanced` (recursive median construction, depth
``O(log N)``) and :meth:`KDTree.build_chain` (the worst-case chain).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core import kernels
from repro.core.config import SemTreeConfig, SplitStrategy
from repro.core.cost import SearchCost
from repro.core.kernels import DEFAULT_SCAN_KERNEL, validate_scan_kernel
from repro.core.knn import KSearchState, Neighbour, RangeSearchState
from repro.core.node import Node, RemoteChild
from repro.core.point import LabeledPoint
from repro.core.splitting import choose_split, partition_bucket
from repro.errors import IndexError_, QueryError

__all__ = ["KDTree"]


class KDTree:
    """A sequential bucket KD-tree over :class:`LabeledPoint`.

    Parameters
    ----------
    dimensions:
        Dimensionality of the indexed points.
    bucket_size:
        Leaf capacity ``Bs``.
    split_strategy:
        How saturated leaves choose their split (see
        :class:`~repro.core.config.SplitStrategy`).
    scan_kernel:
        Leaf-scan implementation: ``"numpy"`` (vectorized, default) or
        ``"scalar"`` (per-point oracle).  See :mod:`repro.core.kernels`.
    """

    def __init__(self, dimensions: int, *, bucket_size: int = 16,
                 split_strategy: SplitStrategy = SplitStrategy.MEDIAN,
                 scan_kernel: str = DEFAULT_SCAN_KERNEL):
        if dimensions < 1:
            raise IndexError_("dimensions must be >= 1")
        if bucket_size < 1:
            raise IndexError_("bucket_size must be >= 1")
        self.dimensions = dimensions
        self.bucket_size = bucket_size
        self.split_strategy = split_strategy
        self.scan_kernel = validate_scan_kernel(scan_kernel)
        self.root: Node = Node()
        self._size = 0

    # -- construction -------------------------------------------------------------------

    @classmethod
    def from_config(cls, config: SemTreeConfig) -> "KDTree":
        """Build an empty tree from a :class:`SemTreeConfig`."""
        return cls(config.dimensions, bucket_size=config.bucket_size,
                   split_strategy=config.split_strategy,
                   scan_kernel=config.scan_kernel)

    @classmethod
    def build_balanced(cls, points: Sequence[LabeledPoint], *, bucket_size: int = 16,
                       scan_kernel: str = DEFAULT_SCAN_KERNEL) -> "KDTree":
        """Bulk-load a balanced tree by recursive median splitting.

        This reproduces the paper's observation that "Kd-trees are more
        efficient in bulk-loading situations": the resulting tree has depth
        ``O(log(N / Bs))`` regardless of the input order.
        """
        if not points:
            raise IndexError_("cannot bulk-load an empty point set")
        dimensions = points[0].dimensions
        tree = cls(dimensions, bucket_size=bucket_size, split_strategy=SplitStrategy.MEDIAN,
                   scan_kernel=scan_kernel)
        tree.root = tree._build_balanced_node(list(points), depth=0)
        tree._size = len(points)
        return tree

    def _build_balanced_node(self, points: List[LabeledPoint], depth: int) -> Node:
        if len(points) <= self.bucket_size:
            return Node(bucket=list(points))
        dimension = depth % self.dimensions
        points.sort(key=lambda point: point[dimension])
        median_index = len(points) // 2
        split_value = points[median_index - 1][dimension]
        left_points, right_points = partition_bucket(points, dimension, split_value)
        if not left_points or not right_points:
            # Degenerate coordinates on this dimension: fall back to the
            # generic splitter, or keep an oversized leaf if even that fails.
            try:
                decision = choose_split(points, depth, self.dimensions, self.split_strategy)
            except IndexError_:
                return Node(bucket=list(points))
            dimension, split_value = decision.split_index, decision.split_value
            left_points, right_points = list(decision.left_points), list(decision.right_points)
        node = Node(split_index=dimension, split_value=split_value)
        node.left = self._build_balanced_node(left_points, depth + 1)
        node.right = self._build_balanced_node(right_points, depth + 1)
        return node

    @classmethod
    def build_chain(cls, points: Sequence[LabeledPoint], *, bucket_size: int = 1,
                    scan_kernel: str = DEFAULT_SCAN_KERNEL) -> "KDTree":
        """Build the paper's "totally unbalanced (chain)" tree.

        Points are sorted on their coordinates and strung on a
        right-descending chain: every routing node keeps a single-point leaf
        on its left and the rest of the data below its right child.  Lookup
        cost degenerates to ``O(N)``, which is exactly the worst case the
        paper contrasts with the balanced tree.
        """
        if not points:
            raise IndexError_("cannot build a chain over an empty point set")
        dimensions = points[0].dimensions
        tree = cls(dimensions, bucket_size=max(bucket_size, 1),
                   split_strategy=SplitStrategy.FIRST_POINT, scan_kernel=scan_kernel)
        ordered = sorted(points, key=lambda point: point.coordinates)
        # Build the chain bottom-up (iteratively) so arbitrarily long chains
        # never hit the recursion limit.
        tail_size = max(tree.bucket_size, 1)
        current: Node = Node(bucket=list(ordered[-tail_size:]))
        for point in reversed(ordered[:-tail_size] if len(ordered) > tail_size else []):
            routing = Node(split_index=0, split_value=point[0])
            routing.left = Node(bucket=[point])
            routing.right = current
            current = routing
        tree.root = current
        tree._size = len(points)
        return tree

    # -- insertion -----------------------------------------------------------------------

    def insert(self, point: LabeledPoint) -> None:
        """Insert one point, splitting the target leaf if its bucket saturates."""
        if point.dimensions != self.dimensions:
            raise IndexError_(
                f"point has {point.dimensions} dimensions, the tree expects {self.dimensions}"
            )
        node, depth = self._descend_to_leaf(point)
        node.add_to_bucket(point)
        self._size += 1
        if len(node.bucket) > self.bucket_size:
            self._split_leaf(node, depth)

    def insert_all(self, points: Iterable[LabeledPoint]) -> None:
        """Insert many points one by one (the paper's dynamic-insertion regime)."""
        for point in points:
            self.insert(point)

    def _descend_to_leaf(self, point: LabeledPoint) -> Tuple[Node, int]:
        node = self.root
        depth = 0
        while node.is_routing:
            node = self._local(node.child_for(point))
            depth += 1
        return node, depth

    def _split_leaf(self, leaf: Node, depth: int) -> None:
        try:
            decision = choose_split(leaf.bucket, depth, self.dimensions, self.split_strategy)
        except IndexError_:
            # All points identical: allow the oversized bucket (splitting is impossible).
            return
        left = Node(bucket=list(decision.left_points))
        right = Node(bucket=list(decision.right_points))
        leaf.convert_to_routing(decision.split_index, decision.split_value, left, right)

    # -- k-nearest search --------------------------------------------------------------------

    def k_nearest(self, query: LabeledPoint, k: int) -> List[Neighbour]:
        """Return the ``k`` nearest stored points to ``query``, closest first."""
        return self.k_nearest_state(query, k).results.neighbours()

    def k_nearest_state(self, query: LabeledPoint, k: int) -> KSearchState:
        """Run the k-nearest search and return the full search state
        (result set plus visit counters)."""
        if query.dimensions != self.dimensions:
            raise QueryError(
                f"query has {query.dimensions} dimensions, the tree expects {self.dimensions}"
            )
        state = KSearchState(query=query, k=k)
        kernels.knn_descend(self.root, state, self.scan_kernel, self._local)
        return state

    # -- range search ---------------------------------------------------------------------------

    def range_query(self, query: LabeledPoint, radius: float) -> List[Neighbour]:
        """Return every stored point within ``radius`` of ``query``, closest first."""
        return self.range_query_state(query, radius)[0]

    def range_query_state(self, query: LabeledPoint, radius: float,
                          cost: Optional[SearchCost] = None,
                          ) -> Tuple[List[Neighbour], int]:
        """Run the range search; return ``(results, nodes_visited)``.

        ``cost``, when given, accumulates the leaf scans' work counters
        (:class:`~repro.core.cost.SearchCost`) without changing the return
        shape existing callers rely on.
        """
        if query.dimensions != self.dimensions:
            raise QueryError(
                f"query has {query.dimensions} dimensions, the tree expects {self.dimensions}"
            )
        state = RangeSearchState(query, radius)
        kernels.range_descend(self.root, state, self.scan_kernel, self._local)
        if cost is not None:
            cost.add(state.cost)
        return state.sorted_results(), state.nodes_visited

    @staticmethod
    def _local(child) -> Node:
        if child is None or isinstance(child, RemoteChild):
            raise IndexError_("a sequential KDTree cannot contain remote children")
        return child

    # -- maintenance --------------------------------------------------------------------------------
    #
    # The paper notes that "once built, modifying or rebalancing a Kd-tree is
    # a non-trivial task" and leaves it out of scope.  The reproduction adds
    # the two obvious maintenance operations so the index can be used beyond
    # the bulk-load-then-query regime: point deletion (bucket removal, no
    # structural merging) and an explicit rebalance (rebuild by median
    # splitting over the surviving points).

    def delete(self, point: LabeledPoint) -> bool:
        """Remove one stored point; return ``True`` when it was present.

        Only the leaf bucket is touched: routing nodes are never merged, so
        repeated deletions can leave empty leaves behind.  Call
        :meth:`rebalance` to compact the structure when a large fraction of
        the data has been removed.
        """
        if point.dimensions != self.dimensions:
            raise IndexError_(
                f"point has {point.dimensions} dimensions, the tree expects {self.dimensions}"
            )
        leaf, _ = self._descend_to_leaf(point)
        if not leaf.remove_from_bucket(point):
            return False
        self._size -= 1
        return True

    def delete_all(self, points: Iterable[LabeledPoint]) -> int:
        """Delete many points; return how many were actually removed."""
        return sum(1 for point in points if self.delete(point))

    def rebalance(self) -> None:
        """Rebuild the tree in place as a balanced tree over the current points.

        This is the answer to the paper's "rebalancing is non-trivial"
        remark: an explicit, bulk re-load (O(N log N)) that restores the
        logarithmic depth after skewed insertions or many deletions.
        """
        points = self.points()
        if not points:
            self.root = Node()
            self._size = 0
            return
        rebuilt = KDTree.build_balanced(points, bucket_size=self.bucket_size)
        self.root = rebuilt.root
        self._size = len(points)

    # -- introspection -----------------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def points(self) -> List[LabeledPoint]:
        """Every stored point (leaf order)."""
        collected: List[LabeledPoint] = []
        for node in self._iter_nodes():
            if node.is_leaf:
                collected.extend(node.bucket)
        return collected

    def _iter_nodes(self) -> Iterable[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.is_routing:
                stack.append(self._local(node.left))
                stack.append(self._local(node.right))

    def depth(self) -> int:
        """Maximum depth of the tree (a single leaf has depth 0)."""
        maximum = 0
        stack: List[Tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, level = stack.pop()
            maximum = max(maximum, level)
            if node.is_routing:
                stack.append((self._local(node.left), level + 1))
                stack.append((self._local(node.right), level + 1))
        return maximum

    def node_count(self) -> int:
        """Total number of nodes (routing + leaves)."""
        return sum(1 for _ in self._iter_nodes())

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for node in self._iter_nodes() if node.is_leaf)

    def routing_count(self) -> int:
        """Number of routing nodes."""
        return sum(1 for node in self._iter_nodes() if node.is_routing)

    def __repr__(self) -> str:
        return (
            f"KDTree(points={self._size}, dimensions={self.dimensions}, "
            f"bucket_size={self.bucket_size}, depth={self.depth()})"
        )
