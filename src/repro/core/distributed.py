"""The distributed SemTree: a KD-tree whose nodes are spread over partitions.

This module implements the four algorithms of Section III-B of the paper on
top of the simulated cluster:

1. **Distributed insertion** — the insertion starts at the root node of the
   root partition; navigation compares ``P[Sr]`` with ``Sv`` at every routing
   node; when the selected child lives on another partition
   (``Cp != Childp``), a message carrying the point is sent to that
   partition, which continues the insertion locally; a saturated leaf is
   split into two fresh children.
2. **Build partition** — when a partition exhausts its allowed resources and
   spare partitions are available, every local leaf is moved into a newly
   created partition and a direct link (a :class:`RemoteChild` pointer)
   replaces it, leaving the original partition as a routing-only partition.
3. **Distributed k-nearest search** — forward descent to a leaf, then a
   backward visit that explores the sibling subtree only when the result
   set is not yet full or the subtree can still hold a point closer than
   the current worst neighbour (the splitting-plane test, tightened by the
   bound accumulated along the descent, which rides in the search state
   across partitions); partition crossings exchange request/result messages.
4. **Distributed range search** — when ``|P[SI] - Sv| <= D`` and the far side
   is still within reach both children are navigated (in parallel across
   partitions when the node is an edge node); otherwise navigation follows
   the insertion rule; partial result sets are merged on the way back.

Both searches run the shared loops of :mod:`repro.core.kernels`; this module
supplies what a remote child means.  Costs are charged to the
:class:`~repro.cluster.cluster.SimulatedCluster`: local work per visited
node / examined point to the owning partition — summed while a traversal
stays in the partition and charged once when it leaves — message latencies
to the network.  Wall-clock time is measured separately by the benchmark
harness.

Cross-partition hops go through a
:class:`~repro.cluster.transport.PartitionRouter` (the simulated bus by
default) rather than the cluster object directly, and every partition also
supports *local-only* scans (:meth:`DistributedSemTree.scan_partition_knn` /
``scan_partition_range`` and the underlying :func:`scan_subtree_knn` /
:func:`scan_subtree_range`) — the unit of work a scatter-gather front end
or a shard server executes; see :mod:`repro.cluster.transport`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.message import Message, MessageKind
from repro.cluster.transport import PartitionRouter, PartitionScan, SimulatedBusRouter
from repro.core import kernels
from repro.core.config import SemTreeConfig
from repro.core.knn import KSearchState, Neighbour, RangeSearchState
from repro.core.node import ChildRef, Node, RemoteChild
from repro.core.partition import Partition
from repro.core.point import LabeledPoint
from repro.core.splitting import choose_split
from repro.errors import IndexError_, PartitionError, QueryError

__all__ = ["DistributedSemTree", "RangeSearchState", "range_children",
           "scan_subtree_knn", "scan_subtree_range", "subtree_point_count"]


def range_children(node: Node, query: LabeledPoint,
                   radius: float) -> Tuple[ChildRef, ...]:
    """The paper's range navigation rule for one routing node.

    Both children when the query ball reaches the splitting plane
    (``|P[SI] - Sv| <= D`` — inclusive like the hit rule, so a point on the
    plane exactly ``D`` away is not lost), the insertion-rule child
    otherwise.  This is the rule as published, which the coordinator's
    partition pruning applies; the traversals tighten it with the descent
    bound (:func:`repro.core.kernels.range_descend`) and so enter a subset
    of the children listed here.  A routing node with a missing child fails
    loudly, never yields a silently-partial scan.
    """
    assert node.split_index is not None and node.split_value is not None
    plane_distance = abs(query[node.split_index] - node.split_value)
    if plane_distance <= radius:
        children: Tuple[Optional[ChildRef], ...] = (node.left, node.right)
    else:
        children = (node.child_for(query),)
    for child in children:
        if child is None:
            raise IndexError_("routing node with a missing child")
    return children  # type: ignore[return-value]


# -- local-only subtree scans (the shard/scatter-gather unit of work) ----------------------

def scan_subtree_knn(root: Node, state: KSearchState,
                     kernel: str = kernels.DEFAULT_SCAN_KERNEL) -> KSearchState:
    """K-search over the *local* nodes below ``root``; remote links are skipped.

    Runs the paper's forward descent + backward visit with the usual pruning
    rules (from a zero descent bound), but never crosses a :class:`RemoteChild` — the caller (a shard
    server, or a scatter-gather front end) owns exactly one partition's
    subtree and other partitions are scanned independently.  The state's
    result set therefore holds the partition-local top-k, whose union over
    all partitions contains the global top-k.
    """
    kernels.knn_descend(root, state, kernel)
    return state


def scan_subtree_range(root: Node, state: "RangeSearchState",
                       kernel: str = kernels.DEFAULT_SCAN_KERNEL) -> "RangeSearchState":
    """Range search over the *local* nodes below ``root``; remote links skipped.

    Applies the same navigation rule as the sequential search (both children
    while the query ball reaches the far side of the splitting plane) within
    one partition's subtree, starting from a zero descent bound.
    """
    kernels.range_descend(root, state, kernel)
    return state


def subtree_point_count(root: Node) -> int:
    """Number of points stored in the local leaves below ``root``.

    Shared by the build-partition procedure and shard boot, so the shard's
    reported point count can never drift from the tree's own accounting.
    """
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            total += len(node.bucket)
            continue
        for child in (node.left, node.right):
            if isinstance(child, Node):
                stack.append(child)
    return total


class DistributedSemTree:
    """A KD-tree distributed over the partitions of a simulated cluster.

    Parameters
    ----------
    config:
        Index configuration (dimensions, bucket size, number of partitions,
        capacity policy, cost model).
    cluster:
        The simulated cluster hosting the partitions.  When omitted, a
        cluster with as many nodes as ``config.max_partitions`` is created.
    router:
        The :class:`~repro.cluster.transport.PartitionRouter` carrying
        cross-partition hops (defaults to the simulated bus of ``cluster``).
    """

    ROOT_PARTITION_ID = "P0"

    def __init__(self, config: SemTreeConfig, cluster: SimulatedCluster | None = None,
                 router: PartitionRouter | None = None):
        self.config = config
        self.cluster = cluster or SimulatedCluster(node_count=max(config.max_partitions, 1))
        self.router: PartitionRouter = router or SimulatedBusRouter(self.cluster)
        self._partitions: Dict[str, Partition] = {}
        self._partition_counter = itertools.count(1)
        self._size = 0
        root_partition = Partition(self.ROOT_PARTITION_ID, self)
        self._register_partition(root_partition)

    # -- partition management -----------------------------------------------------------

    def _register_partition(self, partition: Partition,
                            preferred_node: str | None = None) -> None:
        self._partitions[partition.partition_id] = partition
        self.cluster.place_partition(
            partition.partition_id, partition.handle_message, preferred_node=preferred_node
        )

    def _new_partition(self, root: Node) -> Partition:
        partition_id = f"P{next(self._partition_counter)}"
        partition = Partition(partition_id, self, root=root)
        self._register_partition(partition)
        if partition.point_count:
            self.cluster.record_points(partition_id, partition.point_count)
        return partition

    @classmethod
    def from_snapshot(cls, config: SemTreeConfig,
                      partition_roots: Sequence[Tuple[str, Node]], *, size: int,
                      cluster: SimulatedCluster | None = None) -> "DistributedSemTree":
        """Rebuild a tree from deserialised partition roots (warm start).

        ``partition_roots`` pairs each partition identifier with its local
        root node, remote links already encoded as
        :class:`~repro.core.node.RemoteChild` pointers.  Partitions are
        placed in the given order, so serialising them in registration order
        reproduces the original deterministic placement.

        Raises
        ------
        PartitionError
            If the root partition ``P0`` is missing from the payload.
        """
        tree = cls(config, cluster=cluster)
        # Drop the empty auto-created root partition; every partition of the
        # snapshot (P0 included) is registered from the payload instead.
        tree.cluster.remove_partition(cls.ROOT_PARTITION_ID)
        tree._partitions.clear()
        highest = 0
        for partition_id, root in partition_roots:
            partition = Partition(partition_id, tree, root=root)
            tree._register_partition(partition)
            if partition.point_count:
                tree.cluster.record_points(partition_id, partition.point_count)
            digits = partition_id.lstrip("P")
            if digits.isdigit():
                highest = max(highest, int(digits))
        if cls.ROOT_PARTITION_ID not in tree._partitions:
            raise PartitionError("a snapshot must contain the root partition "
                                 f"{cls.ROOT_PARTITION_ID!r}")
        tree._partition_counter = itertools.count(highest + 1)
        tree._size = size
        return tree

    @property
    def root_partition(self) -> Partition:
        """The root partition (``P0``), where every operation starts."""
        return self._partitions[self.ROOT_PARTITION_ID]

    def partition(self, partition_id: str) -> Partition:
        """Return a partition by identifier."""
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise PartitionError(f"unknown partition {partition_id!r}") from None

    @property
    def partitions(self) -> List[Partition]:
        """All partitions, ordered by identifier."""
        return [self._partitions[pid] for pid in sorted(self._partitions)]

    @property
    def partition_count(self) -> int:
        """Number of partitions currently in use."""
        return len(self._partitions)

    def __len__(self) -> int:
        return self._size

    # -- insertion -------------------------------------------------------------------------

    def insert(self, point: LabeledPoint) -> None:
        """Insert a point, starting "from the root node of the root partition"."""
        if point.dimensions != self.config.dimensions:
            raise IndexError_(
                f"point has {point.dimensions} dimensions, the index expects "
                f"{self.config.dimensions}"
            )
        self._insert_in_partition(self.root_partition, point)
        self._size += 1

    def insert_all(self, points: Iterable[LabeledPoint]) -> None:
        """Insert many points one by one."""
        for point in points:
            self.insert(point)

    def handle_insert_message(self, partition: Partition, message: Message) -> None:
        """Bus callback: continue an insertion that crossed into ``partition``."""
        self._insert_in_partition(partition, message.payload["point"])

    def _insert_in_partition(self, partition: Partition, point: LabeledPoint) -> None:
        node = partition.root
        depth = self._depth_hint(partition)
        while True:
            self.cluster.charge_work(partition.partition_id, self.config.node_visit_cost)
            if node.is_leaf:
                break
            child = node.child_for(point)
            if isinstance(child, RemoteChild):
                # Cp != Childp: delegate the insertion to the partition
                # hosting the child, via the communication protocol.
                self.router.continue_insert(
                    partition.partition_id, child.partition_id, point
                )
                return
            node = child
            depth += 1

        node.add_to_bucket(point)
        partition.record_stored(1)
        self.cluster.record_points(partition.partition_id, 1)
        self.cluster.charge_work(partition.partition_id, self.config.point_insert_cost)
        if len(node.bucket) > self.config.bucket_size:
            self._split_leaf(partition, node, depth)
        self._maybe_build_partitions(partition)

    def _depth_hint(self, partition: Partition) -> int:
        # The split dimension only needs to cycle; the exact global depth of a
        # partition root is not tracked, so local depth 0 is a sound hint.
        return 0

    def _split_leaf(self, partition: Partition, leaf: Node, depth: int) -> None:
        try:
            decision = choose_split(leaf.bucket, depth, self.config.dimensions,
                                    self.config.split_strategy)
        except IndexError_:
            return  # identical points: keep the oversized bucket
        left = Node(partition_id=partition.partition_id, bucket=list(decision.left_points))
        right = Node(partition_id=partition.partition_id, bucket=list(decision.right_points))
        leaf.convert_to_routing(decision.split_index, decision.split_value, left, right)
        self.cluster.charge_work(
            partition.partition_id,
            self.config.point_visit_cost * (len(decision.left_points) + len(decision.right_points)),
        )

    # -- build partition ----------------------------------------------------------------------

    def _maybe_build_partitions(self, partition: Partition) -> None:
        node_id = self.cluster.node_of_partition(partition.partition_id)
        node_capacity = self.cluster.node(node_id).storage_capacity
        if not partition.is_saturated(self.config, node_capacity):
            return
        if self.partition_count >= self.config.max_partitions:
            return  # no spare compute resources: the partition keeps its data
        self.build_partition(partition)

    def build_partition(self, partition: Partition) -> List[str]:
        """The paper's build-partition procedure.

        Starting from the saturated partition's root, the subtrees holding
        its leaves are moved into newly created partitions and replaced by
        direct links, so that the original partition "is used just for
        routing and others for storing data".  When the partition's leaves
        all hang directly below its root this moves exactly "each leaf node
        of the current partition into a different newly created partition";
        when there are more leaves than spare compute nodes the procedure
        moves the enclosing subtrees instead, which keeps the paper's
        complexity model (the routing partition retains about ``2M - 1``
        nodes and the ``M - 1`` data partitions share the points).

        Returns the identifiers of the partitions created.  The procedure is
        a no-op when the cluster has no spare partitions or the partition's
        root is still a leaf.
        """
        slots = self.config.max_partitions - self.partition_count
        if slots <= 0 or partition.root.is_leaf:
            return []

        frontier = self._spill_frontier(partition, slots)
        created: List[str] = []
        # Move the heaviest subtrees first so any subtree left behind (when
        # the frontier is larger than the available slots) is the smallest.
        frontier.sort(key=lambda entry: -self._subtree_points(entry[2]))
        for parent, side, subtree_root in frontier[:slots]:
            moved_points = self._subtree_points(subtree_root)
            new_partition = self._new_partition(subtree_root)
            created.append(new_partition.partition_id)
            pointer = RemoteChild(new_partition.partition_id)
            if side == "left":
                parent.left = pointer
            else:
                parent.right = pointer
            partition.record_stored(-moved_points)
            if moved_points:
                self.cluster.record_points(partition.partition_id, -moved_points)
            self.router.ship_subtree(
                partition.partition_id, new_partition.partition_id, moved_points
            )
            self.cluster.charge_work(
                partition.partition_id, self.config.point_visit_cost * moved_points
            )
        return created

    def _spill_frontier(self, partition: Partition,
                        slots: int) -> List[Tuple[Node, str, Node]]:
        """Choose the disjoint local subtrees to move out of a saturated partition.

        The frontier starts at the children of the partition root and
        expands the routing node with the most points until it has ``slots``
        entries (or only leaves remain), so the moved subtrees cover every
        local leaf whenever enough compute nodes are available.
        """
        frontier: List[Tuple[Node, str, Node]] = []
        root = partition.root
        for side in ("left", "right"):
            child = getattr(root, side)
            if isinstance(child, Node):
                frontier.append((root, side, child))
        while len(frontier) < slots:
            expandable = [
                entry for entry in frontier
                if entry[2].is_routing
                and isinstance(entry[2].left, Node)
                and isinstance(entry[2].right, Node)
            ]
            if not expandable:
                break
            parent_entry = max(expandable, key=lambda entry: self._subtree_points(entry[2]))
            frontier.remove(parent_entry)
            _, _, node = parent_entry
            frontier.append((node, "left", node.left))    # type: ignore[arg-type]
            frontier.append((node, "right", node.right))  # type: ignore[arg-type]
        return frontier

    @staticmethod
    def _subtree_points(root: Node) -> int:
        """Number of points stored in the local leaves of a subtree."""
        return subtree_point_count(root)

    # -- k-nearest search -----------------------------------------------------------------------

    def k_nearest(self, query: LabeledPoint, k: int) -> List[Neighbour]:
        """Return the ``k`` stored points closest to ``query``, closest first."""
        return self.k_nearest_state(query, k).results.neighbours()

    def k_nearest_state(self, query: LabeledPoint, k: int) -> KSearchState:
        """Run the distributed k-nearest search and return its full state."""
        if query.dimensions != self.config.dimensions:
            raise QueryError(
                f"query has {query.dimensions} dimensions, the index expects "
                f"{self.config.dimensions}"
            )
        state = KSearchState(query=query, k=k)
        state.partitions_visited = 1
        self._traverse(self.root_partition, state,
                       kernels.knn_descend, self.router.continue_knn)
        return state

    def handle_knn_message(self, partition: Partition, message: Message) -> None:
        """Bus callback: continue a k-search in ``partition`` and send the result back."""
        state: KSearchState = message.payload["state"]
        state.partitions_visited += 1
        self._traverse(partition, state, kernels.knn_descend, self.router.continue_knn)
        self.router.reply_found(
            MessageKind.KNN_RESULT, partition.partition_id, message.source,
            len(state.results),
        )

    # -- range search -----------------------------------------------------------------------------

    def range_query(self, query: LabeledPoint, radius: float) -> List[Neighbour]:
        """Return every stored point within ``radius`` of ``query``, closest first."""
        return self.range_query_state(query, radius).sorted_results()

    def range_query_state(self, query: LabeledPoint, radius: float) -> RangeSearchState:
        """Run the distributed range search and return its full state."""
        if query.dimensions != self.config.dimensions:
            raise QueryError(
                f"query has {query.dimensions} dimensions, the index expects "
                f"{self.config.dimensions}"
            )
        state = RangeSearchState(query, radius)
        state.partitions_visited = 1
        self._traverse(self.root_partition, state,
                       kernels.range_descend, self.router.continue_range)
        return state

    def handle_range_message(self, partition: Partition, message: Message) -> None:
        """Bus callback: continue a range search in ``partition`` and reply with results."""
        state: RangeSearchState = message.payload["state"]
        state.partitions_visited += 1
        self._traverse(partition, state, kernels.range_descend, self.router.continue_range)
        self.router.reply_found(
            MessageKind.RANGE_RESULT, partition.partition_id, message.source,
            len(state.results),
        )

    # -- the guided traversal (both searches) ---------------------------------------------------

    def _traverse(self, partition: Partition, state, descend, forward) -> None:
        """Run a shared search loop (``descend``) over ``partition``'s local nodes.

        Remote children are handed to ``forward`` — the router's
        ``continue_knn`` / ``continue_range``, which re-enters this method
        through the bus callbacks above.  The state's visit counters only
        advance here while the search stays in this partition, so the local
        work is charged from their growth, once per stay: before each hop
        and when the loop drains.
        """
        partition_id = partition.partition_id
        state.note_partition(partition_id)
        mark = [state.nodes_visited, state.points_examined]

        def charge() -> None:
            self._charge_scan(partition_id, state.nodes_visited - mark[0],
                              state.points_examined - mark[1])

        def hop(child: RemoteChild) -> None:
            charge()
            forward(partition_id, child.partition_id, state)
            mark[:] = state.nodes_visited, state.points_examined

        descend(partition.root, state, self.config.scan_kernel, hop)
        charge()

    # -- whole-partition scans (scatter-gather serving) ---------------------------------------------

    def scan_partition_knn(self, partition_id: str, query: LabeledPoint,
                           k: int) -> KSearchState:
        """The partition-local k-search of one partition (remote links skipped).

        This is the unit of work a scatter-gather front end fans out —
        in-process through :class:`~repro.cluster.transport.SimulatedClusterTransport`,
        or over HTTP when the partition is served by a shard process.  Local
        work is charged to the simulated clock exactly like the guided
        traversal charges it.
        """
        if query.dimensions != self.config.dimensions:
            raise QueryError(
                f"query has {query.dimensions} dimensions, the index expects "
                f"{self.config.dimensions}"
            )
        partition = self.partition(partition_id)
        state = KSearchState(query=query, k=k)
        state.partitions_visited = 1
        state.note_partition(partition_id)
        scan_subtree_knn(partition.root, state, self.config.scan_kernel)
        self._charge_scan(partition_id, state.nodes_visited, state.points_examined)
        return state

    def scan_partition_range(self, partition_id: str, query: LabeledPoint,
                             radius: float) -> RangeSearchState:
        """The partition-local range search of one partition (remote links skipped)."""
        if query.dimensions != self.config.dimensions:
            raise QueryError(
                f"query has {query.dimensions} dimensions, the index expects "
                f"{self.config.dimensions}"
            )
        partition = self.partition(partition_id)
        state = RangeSearchState(query, radius)
        state.partitions_visited = 1
        state.note_partition(partition_id)
        scan_subtree_range(partition.root, state, self.config.scan_kernel)
        self._charge_scan(partition_id, state.nodes_visited, state.points_examined)
        return state

    def _charge_scan(self, partition_id: str, nodes: int, points: int) -> None:
        self.cluster.charge_work(
            partition_id,
            self.config.node_visit_cost * nodes + self.config.point_visit_cost * points,
        )

    def handle_scan_message(self, partition: Partition, message: Message) -> None:
        """Bus callback: run a whole-partition scan and reply with its result.

        The :class:`PartitionScan` travels back inside the request payload
        (the simulated bus is synchronous); the ``SCAN_RESULT`` reply only
        exists so the network cost of shipping the result is accounted.
        """
        payload = message.payload
        if message.kind is MessageKind.SCAN_KNN:
            state = self.scan_partition_knn(
                partition.partition_id, payload["query"], payload["k"]
            )
            neighbours = tuple(state.results.neighbours())
        else:
            state = self.scan_partition_range(
                partition.partition_id, payload["query"], payload["radius"]
            )
            neighbours = tuple(state.sorted_results())
        payload["scan"] = PartitionScan(
            partition_id=partition.partition_id,
            neighbours=neighbours,
            nodes_visited=state.nodes_visited,
            points_examined=state.points_examined,
            cost=state.cost,
        )
        self.router.reply_found(
            MessageKind.SCAN_RESULT, partition.partition_id, message.source,
            len(neighbours),
        )

    # -- introspection ------------------------------------------------------------------------------

    def points(self) -> List[LabeledPoint]:
        """Every stored point, partition by partition."""
        collected: List[LabeledPoint] = []
        for partition in self.partitions:
            for node in partition.local_nodes():
                if node.is_leaf:
                    collected.extend(node.bucket)
        return collected

    def statistics(self) -> Dict[str, object]:
        """Structural statistics used by tests and the benchmark reports."""
        per_partition = {p.partition_id: p.point_count for p in self.partitions}
        routing_only = sum(1 for p in self.partitions if p.is_routing_only)
        return {
            "points": self._size,
            "partitions": self.partition_count,
            "routing_only_partitions": routing_only,
            "points_per_partition": per_partition,
            "nodes": sum(sum(1 for _ in p.local_nodes()) for p in self.partitions),
            "messages": self.cluster.clock.messages,
        }

    def __repr__(self) -> str:
        return (
            f"DistributedSemTree(points={self._size}, partitions={self.partition_count}, "
            f"bucket_size={self.config.bucket_size})"
        )
