"""The pruned descent against the plain-list oracle, and against the paper's plane rule.

Every tree kind — the sequential :class:`KDTree`, the guided
:class:`DistributedSemTree` and the union of its partition-local scans —
runs the shared loops of :mod:`repro.core.kernels`.  These properties pin
them to the per-point linear scan on inputs built to sit *on* the decisions
the loops take: grid coordinates (duplicated points, exact distance ties),
queries on splitting planes and queries exactly ``radius`` away from a
stored point.  The incremental-distance bound must only ever remove leaves
from the sequence the published one-plane rule
(:meth:`KSearchState.must_visit_other_side`) scans, never add or reorder.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.transport import SimulatedBusRouter
from repro.core import kernels
from repro.core.config import SemTreeConfig
from repro.core.distributed import DistributedSemTree
from repro.core.kdtree import KDTree
from repro.core.knn import KSearchState
from repro.core.point import LabeledPoint

DIMS = (2, 8, 16)
BUCKET_SIZES = (1, 4, 16, 64)
GRID_STEP = 0.25

grid = st.integers(min_value=0, max_value=4).map(lambda cell: cell * GRID_STEP)
coordinate = st.one_of(grid, grid, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


@st.composite
def scenarios(draw):
    """``(dim, points, query, radius, k)`` aimed at planes, ties and the radius edge."""
    dim = draw(st.sampled_from(DIMS))
    vector = st.lists(coordinate, min_size=dim, max_size=dim)
    raw = draw(st.lists(vector, min_size=2, max_size=70))
    # Re-issue some coordinate vectors under fresh labels: exact duplicates.
    raw += [raw[index % len(raw)]
            for index in draw(st.lists(st.integers(min_value=0, max_value=69), max_size=12))]
    points = [LabeledPoint.of(coords, label=label) for label, coords in enumerate(raw)]
    radius = draw(st.one_of(st.sampled_from([0.0, GRID_STEP, 2 * GRID_STEP]),
                            st.floats(min_value=0.0, max_value=1.5, allow_nan=False)))
    anchor = list(draw(st.sampled_from(raw)))
    kind = draw(st.sampled_from(["stored", "shifted", "free"]))
    if kind == "shifted":
        # exactly ``radius`` from a stored point whenever the arithmetic is exact
        anchor[draw(st.integers(min_value=0, max_value=dim - 1))] += radius
    elif kind == "free":
        anchor = draw(vector)
    k = draw(st.integers(min_value=1, max_value=12))
    return dim, points, LabeledPoint.of(anchor), radius, k


def _build(dim, points, bucket_size, kernel):
    sequential = KDTree(dim, bucket_size=bucket_size, scan_kernel=kernel)
    sequential.insert_all(points)
    distributed = DistributedSemTree(SemTreeConfig(
        dimensions=dim, bucket_size=bucket_size, max_partitions=4,
        partition_capacity=max(bucket_size, len(points) // 3), scan_kernel=kernel))
    distributed.insert_all(points)
    return sequential, distributed


def _assert_knn_is(found, points, query, k):
    """``found`` is the oracle's answer; only *which* boundary tie is kept may differ."""
    expected = kernels.linear_knn(points, query, k, kernel="scalar")
    assert [n.distance for n in found] == [n.distance for n in expected]
    boundary = expected[-1].distance
    assert sorted(n.point.label for n in found if n.distance < boundary) == \
        sorted(n.point.label for n in expected if n.distance < boundary)
    labels = [n.point.label for n in found]
    assert len(set(labels)) == len(labels)
    for neighbour in found:
        assert points[neighbour.point.label] is neighbour.point
        assert neighbour.distance == math.dist(query.coordinates, neighbour.point.coordinates)


def _assert_range_is(found, points, query, radius):
    expected = kernels.linear_range(points, query, radius, kernel="scalar")
    assert [n.distance for n in found] == sorted(n.distance for n in found)
    assert sorted((n.distance, n.point.label) for n in found) == \
        sorted((n.distance, n.point.label) for n in expected)


@pytest.mark.parametrize("kernel", kernels.SCAN_KERNELS)
@pytest.mark.parametrize("bucket_size", BUCKET_SIZES)
@given(scenario=scenarios())
@settings(max_examples=25, deadline=None)
def test_every_tree_kind_answers_like_the_linear_scan(bucket_size, kernel, scenario):
    dim, points, query, radius, k = scenario
    sequential, distributed = _build(dim, points, bucket_size, kernel)

    _assert_knn_is(sequential.k_nearest(query, k), points, query, k)
    _assert_knn_is(distributed.k_nearest(query, k), points, query, k)
    scattered = [neighbour for partition in distributed.partitions
                 for neighbour in distributed.scan_partition_knn(
                     partition.partition_id, query, k).results.neighbours()]
    scattered.sort(key=lambda neighbour: neighbour.distance)
    _assert_knn_is(scattered[:k], points, query, k)

    _assert_range_is(sequential.range_query(query, radius), points, query, radius)
    _assert_range_is(distributed.range_query(query, radius), points, query, radius)
    scattered = [neighbour for partition in distributed.partitions
                 for neighbour in distributed.scan_partition_range(
                     partition.partition_id, query, radius).sorted_results()]
    scattered.sort(key=lambda neighbour: neighbour.distance)
    _assert_range_is(scattered, points, query, radius)

    # the vectorized whole-corpus scans are oracles too (delta segment, baseline)
    _assert_knn_is(kernels.linear_knn(points, query, k), points, query, k)
    _assert_range_is(kernels.linear_range(points, query, radius), points, query, radius)


def _plane_rule_leaves(root, query, k, kernel):
    """Leaves scanned by the k-search as published: the one-plane backward test."""
    state = KSearchState(query=query, k=k)
    scanned = []
    stack = [(root, None)]
    while stack:
        node, pending_far = stack.pop()
        if pending_far is not None:
            if state.must_visit_other_side(node.split_index, node.split_value):
                stack.append((pending_far, None))
            continue
        if node.is_leaf:
            scanned.append(node.node_id)
            kernels.knn_scan_node(state, node, kernel)
            continue
        near = node.child_for(query)
        stack.append((node, node.other_child(near)))
        stack.append((near, None))
    return scanned, state


def _is_subsequence(shorter, longer):
    remaining = iter(longer)
    return all(item in remaining for item in shorter)


@pytest.mark.parametrize("kernel", kernels.SCAN_KERNELS)
@pytest.mark.parametrize("bucket_size", BUCKET_SIZES)
@given(scenario=scenarios())
@settings(max_examples=25, deadline=None)
def test_bound_scans_a_subsequence_of_the_plane_rules_leaves(bucket_size, kernel, scenario):
    dim, points, query, _, k = scenario
    tree = KDTree(dim, bucket_size=bucket_size, scan_kernel=kernel)
    tree.insert_all(points)
    published, reference = _plane_rule_leaves(tree.root, query, k, kernel)

    scanned = []
    scan = kernels.knn_scan_node

    def recording_scan(state, node, scan_kernel):
        scanned.append(node.node_id)
        return scan(state, node, scan_kernel)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "knn_scan_node", recording_scan)
        state = tree.k_nearest_state(query, k)

    assert _is_subsequence(scanned, published)
    assert state.points_examined <= reference.points_examined
    # a skipped leaf never held anything the result set would have taken
    assert [(n.point.label, n.distance) for n in state.results.neighbours()] == \
        [(n.point.label, n.distance) for n in reference.results.neighbours()]


def test_exact_ties_on_the_plane_and_on_the_radius():
    """The hand-made edge: the k-th neighbour, the plane and the radius coincide."""
    points = [LabeledPoint.of([x * GRID_STEP, y * GRID_STEP], label=4 * x + y)
              for x in range(4) for y in range(4)]
    query = LabeledPoint.of([GRID_STEP, 2 * GRID_STEP])
    for kernel in kernels.SCAN_KERNELS:
        for bucket_size in (1, 4):
            sequential, distributed = _build(2, points, bucket_size, kernel)
            for tree in (sequential, distributed):
                hits = tree.range_query(query, GRID_STEP)
                # the point itself and its four grid neighbours, at exactly D
                assert [n.distance for n in hits] == [0.0] + [GRID_STEP] * 4
                _assert_range_is(hits, points, query, GRID_STEP)
                for k in (1, 2, 5, 6):
                    _assert_knn_is(tree.k_nearest(query, k), points, query, k)


def test_distances_too_small_to_square_still_order():
    """Squares that underflow to zero must not tie a true nearest away."""
    points = [LabeledPoint.of([0.0, 1.0], label=0), LabeledPoint.of([0.0, 1e-200], label=1)]
    points += [LabeledPoint.of([0.0, 0.0], label=label) for label in range(2, 10)]
    query = LabeledPoint.of([0.0, 0.0])
    assert [n.distance for n in kernels.linear_knn(points, query, 1)] == [0.0]
    tree = KDTree.build_balanced(points, bucket_size=16)
    assert [n.distance for n in tree.k_nearest(query, 1)] == [0.0]
    assert len(tree.range_query(query, 1e-250)) == 8


# -- cost-model parity --------------------------------------------------------------------


class _AttributingRouter(SimulatedBusRouter):
    """Splits a search state's visit counters by the partition that advanced them.

    Independent of the tree's own charging: it only reads the state at the
    partition crossings the router carries.
    """

    def __init__(self, cluster):
        super().__init__(cluster)
        self.begin()

    def begin(self):
        self.visits = defaultdict(lambda: [0, 0])
        self._seen = (0, 0)

    def credit(self, partition_id, state):
        nodes, points = state.nodes_visited, state.points_examined
        self.visits[partition_id][0] += nodes - self._seen[0]
        self.visits[partition_id][1] += points - self._seen[1]
        self._seen = (nodes, points)

    def continue_knn(self, source, target, state):
        self.credit(source, state)
        super().continue_knn(source, target, state)
        self.credit(target, state)

    def continue_range(self, source, target, state):
        self.credit(source, state)
        super().continue_range(source, target, state)
        self.credit(target, state)


def test_batched_charges_equal_the_per_visit_cost_model():
    """Per partition: work == node_visit_cost·nodes + point_visit_cost·points."""
    rng = random.Random(5)
    points = [LabeledPoint.of([rng.random() for _ in range(4)], label=index)
              for index in range(600)]
    config = SemTreeConfig(dimensions=4, bucket_size=8, max_partitions=5,
                           partition_capacity=150, node_visit_cost=1.0,
                           point_visit_cost=0.1)
    # free messages: what is charged to a partition is its local work alone
    cluster = SimulatedCluster(node_count=5, remote_latency=0.0, local_latency=0.0)
    router = _AttributingRouter(cluster)
    tree = DistributedSemTree(config, cluster=cluster, router=router)
    tree.insert_all(points)
    assert tree.partition_count > 2

    def expected(nodes, visited):
        return config.node_visit_cost * nodes + config.point_visit_cost * visited

    for query in points[::97]:
        for search in (lambda: tree.k_nearest_state(query, 7),
                       lambda: tree.range_query_state(query, 0.3)):
            cluster.reset_costs()
            router.begin()
            state = search()
            router.credit(tree.ROOT_PARTITION_ID, state)
            assert state.partitions_visited > 1
            work = cluster.costs().per_resource
            assert sum(nodes for nodes, _ in router.visits.values()) == state.nodes_visited
            for partition_id, (nodes, visited) in router.visits.items():
                assert work[partition_id] == pytest.approx(expected(nodes, visited), rel=1e-9)
            assert set(work) == set(router.visits)

        for partition in tree.partitions:
            for scan in (lambda: tree.scan_partition_knn(partition.partition_id, query, 7),
                         lambda: tree.scan_partition_range(partition.partition_id, query, 0.3)):
                cluster.reset_costs()
                state = scan()
                assert cluster.costs().per_resource == {partition.partition_id: pytest.approx(
                    expected(state.nodes_visited, state.points_examined), rel=1e-9)}
