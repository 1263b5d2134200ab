"""Oracle equivalence of the vectorized scan kernels.

``scan_kernel="scalar"`` is the per-point correctness oracle;
``scan_kernel="numpy"`` must return tie-insensitive-identical results for
k-NN and range queries across bucket sizes, dimensionalities,
duplicate-coordinate buckets, the distributed tree, the linear-scan
baseline, the delta segment, and the ingest tree ∪ delta merged-read path.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import SemTreeConfig
from repro.core.distributed import DistributedSemTree
from repro.core.kdtree import KDTree
from repro.core.knn import KSearchState
from repro.core.node import Node
from repro.core.point import LabeledPoint, squared_euclidean_distance
from repro.baselines.linear_scan import LinearScanIndex
from repro.errors import IndexError_
from repro.ingest.delta import DeltaIndex
from repro.ingest.ingesting import IngestingIndex
from repro.core.semtree import SemTreeIndex
from repro.requirements import (build_requirement_distance,
                                build_requirement_vocabularies)

BUCKET_SIZES = [1, 4, 16, 64]
DIMS = [2, 8, 16]
N_POINTS = 256
K = 7


def _random_points(count, dim, seed=3, duplicates=False):
    rng = random.Random(seed)
    points = []
    for index in range(count):
        if duplicates and index % 3 == 0 and points:
            # Re-issue an earlier coordinate vector under a fresh label so
            # buckets hold exact-duplicate coordinates (distance ties).
            donor = points[rng.randrange(len(points))]
            points.append(LabeledPoint(donor.coordinates, label=index))
        else:
            points.append(LabeledPoint.of(
                [rng.random() for _ in range(dim)], label=index))
    return points


def _queries(dim, count=6, seed=17):
    rng = random.Random(seed)
    return [LabeledPoint.of([rng.random() for _ in range(dim)]) for _ in range(count)]


def _knn_key(neighbours):
    return sorted((round(n.distance, 9), n.point.label) for n in neighbours)


def _range_key(neighbours):
    return sorted((round(n.distance, 9), n.point.label) for n in neighbours)


@pytest.mark.parametrize("bucket_size", BUCKET_SIZES)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("duplicates", [False, True])
def test_kdtree_kernels_equivalent(bucket_size, dim, duplicates):
    points = _random_points(N_POINTS, dim, duplicates=duplicates)
    scalar_tree = KDTree.build_balanced(points, bucket_size=bucket_size,
                                        scan_kernel="scalar")
    numpy_tree = KDTree.build_balanced(points, bucket_size=bucket_size,
                                       scan_kernel="numpy")
    for query in _queries(dim):
        scalar_knn = scalar_tree.k_nearest(query, K)
        numpy_knn = numpy_tree.k_nearest(query, K)
        assert _knn_key(scalar_knn) == _knn_key(numpy_knn)
        for radius in (0.05, 0.3, 1.0):
            scalar_range, scalar_visited = scalar_tree.range_query_state(query, radius)
            numpy_range, numpy_visited = numpy_tree.range_query_state(query, radius)
            assert _range_key(scalar_range) == _range_key(numpy_range)
            # The kernel changes how leaves are scanned, never which nodes
            # are visited.
            assert scalar_visited == numpy_visited


@pytest.mark.parametrize("bucket_size", [4, 16])
def test_kdtree_kernels_equivalent_under_dynamic_insertion(bucket_size):
    """Insert-driven trees (splits, matrix invalidation) agree too."""
    points = _random_points(N_POINTS, 8, duplicates=True)
    scalar_tree = KDTree(8, bucket_size=bucket_size, scan_kernel="scalar")
    numpy_tree = KDTree(8, bucket_size=bucket_size, scan_kernel="numpy")
    for index, point in enumerate(points):
        scalar_tree.insert(point)
        numpy_tree.insert(point)
        if index % 64 == 0:
            for query in _queries(8, count=2):
                assert _knn_key(scalar_tree.k_nearest(query, 3)) == \
                    _knn_key(numpy_tree.k_nearest(query, 3))
    for query in _queries(8):
        assert _knn_key(scalar_tree.k_nearest(query, K)) == \
            _knn_key(numpy_tree.k_nearest(query, K))
        assert _range_key(scalar_tree.range_query(query, 0.4)) == \
            _range_key(numpy_tree.range_query(query, 0.4))


def test_kdtree_counters_match_between_kernels():
    points = _random_points(N_POINTS, 8)
    scalar_tree = KDTree.build_balanced(points, bucket_size=16, scan_kernel="scalar")
    numpy_tree = KDTree.build_balanced(points, bucket_size=16, scan_kernel="numpy")
    for query in _queries(8):
        scalar_state = scalar_tree.k_nearest_state(query, K)
        numpy_state = numpy_tree.k_nearest_state(query, K)
        assert scalar_state.points_examined == numpy_state.points_examined
        assert scalar_state.nodes_visited == numpy_state.nodes_visited


@pytest.mark.parametrize("dim", [2, 8])
def test_distributed_kernels_equivalent(dim):
    points = _random_points(200, dim, duplicates=True)
    queries = _queries(dim)
    results = {}
    for kernel in ("scalar", "numpy"):
        config = SemTreeConfig(dimensions=dim, bucket_size=8, max_partitions=4,
                               partition_capacity=48, scan_kernel=kernel)
        tree = DistributedSemTree(config)
        tree.insert_all(points)
        assert tree.partition_count > 1  # the partition scans actually run
        results[kernel] = [
            (_knn_key(tree.k_nearest(query, K)),
             _range_key(tree.range_query(query, 0.35)))
            for query in queries
        ]
    assert results["scalar"] == results["numpy"]


@pytest.mark.parametrize("duplicates", [False, True])
def test_linear_scan_kernels_equivalent(duplicates):
    points = _random_points(N_POINTS, 8, duplicates=duplicates)
    scalar_index = LinearScanIndex(points, scan_kernel="scalar")
    numpy_index = LinearScanIndex(points, scan_kernel="numpy")
    for query in _queries(8):
        assert _knn_key(scalar_index.k_nearest(query, K)) == \
            _knn_key(numpy_index.k_nearest(query, K))
        assert _range_key(scalar_index.range_query(query, 0.4)) == \
            _range_key(numpy_index.range_query(query, 0.4))
    # Ties must also resolve identically (stable, insertion order).
    if duplicates:
        for query in _queries(8, count=2, seed=5):
            scalar_labels = [n.point.label for n in scalar_index.k_nearest(query, K)]
            numpy_labels = [n.point.label for n in numpy_index.k_nearest(query, K)]
            assert scalar_labels == numpy_labels


def test_delta_index_kernels_equivalent():
    points = _random_points(96, 8, duplicates=True)
    scalar_delta = DeltaIndex(scan_kernel="scalar")
    numpy_delta = DeltaIndex(scan_kernel="numpy")
    for point in points:
        scalar_delta.add(point)
        numpy_delta.add(point)
    for query in _queries(8):
        assert _knn_key(scalar_delta.all_neighbours(query)) == \
            _knn_key(numpy_delta.all_neighbours(query))
        assert _knn_key(scalar_delta.k_nearest(query, K)) == \
            _knn_key(numpy_delta.k_nearest(query, K))
        assert _range_key(scalar_delta.neighbours_within(query, 0.4)) == \
            _range_key(numpy_delta.neighbours_within(query, 0.4))


def _built_ingesting_index(small_corpus, kernel, wal_path):
    vocabularies = build_requirement_vocabularies(
        small_corpus.actor_names, small_corpus.parameter_values
    )
    distance = build_requirement_distance(vocabularies)
    triples = list(dict.fromkeys(small_corpus.all_triples()))
    base_triples, stream = triples[:-24], triples[-24:]
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=4, bucket_size=8, max_partitions=3, partition_capacity=64,
        scan_kernel=kernel,
    ))
    index.add_triples(base_triples)
    index.build()
    ingesting = IngestingIndex(index, wal_path, compaction_threshold=1000)
    ingesting.insert_many(stream)
    return ingesting, stream


def test_ingest_merged_read_kernels_equivalent(small_corpus, tmp_path):
    """The tree ∪ delta merge path answers identically under both kernels."""
    scalar_index, stream = _built_ingesting_index(
        small_corpus, "scalar", tmp_path / "scalar.jsonl")
    numpy_index, _ = _built_ingesting_index(
        small_corpus, "numpy", tmp_path / "numpy.jsonl")
    assert len(scalar_index.delta) == len(stream)
    assert numpy_index.delta.scan_kernel == "numpy"
    queries = stream[:6]
    for query in queries:
        scalar_knn = [(round(m.distance, 9), str(m.triple))
                      for m in scalar_index.k_nearest(query, 5)]
        numpy_knn = [(round(m.distance, 9), str(m.triple))
                     for m in numpy_index.k_nearest(query, 5)]
        assert sorted(scalar_knn) == sorted(numpy_knn)
        scalar_range = [(round(m.distance, 9), str(m.triple))
                        for m in scalar_index.range_query(query, 0.5)]
        numpy_range = [(round(m.distance, 9), str(m.triple))
                       for m in numpy_index.range_query(query, 0.5)]
        assert sorted(scalar_range) == sorted(numpy_range)
    scalar_index.close()
    numpy_index.close()


# -- kernel internals -------------------------------------------------------------------


def test_topk_preselection_matches_full_offers():
    """Offering only a bucket's stable top-k equals offering every point."""
    points = _random_points(64, 8, duplicates=True)
    query = _queries(8, count=1)[0]
    full = KSearchState(query=query, k=5)
    full.examine_bucket(points)
    pruned = KSearchState(query=query, k=5)
    kernels.knn_scan_points(pruned, points)
    assert _knn_key(full.results.neighbours()) == _knn_key(pruned.results.neighbours())
    assert [n.point.label for n in full.results.neighbours()] == \
        [n.point.label for n in pruned.results.neighbours()]


def test_knn_scan_prefilters_against_current_radius():
    """With a full result set, far-away buckets add nothing and stay exact."""
    near = [LabeledPoint.of([0.0, float(i) / 100], label=f"near{i}") for i in range(8)]
    far = [LabeledPoint.of([50.0 + i, 0.0], label=f"far{i}") for i in range(32)]
    query = LabeledPoint.of([0.0, 0.0])
    state = KSearchState(query=query, k=4)
    kernels.knn_scan_points(state, near)
    before = _knn_key(state.results.neighbours())
    retained = kernels.knn_scan_points(state, far)
    assert retained == 0
    assert state.points_examined == len(near) + len(far)
    assert _knn_key(state.results.neighbours()) == before


def test_bucket_matrix_cache_invalidation():
    node = Node(bucket=[LabeledPoint.of([0.0, 0.0], label=0)])
    first = node.bucket_matrix()
    assert first.shape == (1, 2)
    assert node.bucket_matrix() is first  # cached
    node.add_to_bucket(LabeledPoint.of([1.0, 1.0], label=1))
    second = node.bucket_matrix()
    assert second.shape == (2, 2)
    assert node.remove_from_bucket(LabeledPoint.of([0.0, 0.0], label=0))
    assert node.bucket_matrix().shape == (1, 2)
    assert not node.remove_from_bucket(LabeledPoint.of([9.0, 9.0], label=9))
    node.set_bucket([LabeledPoint.of([2.0, 2.0], label=2)])
    assert np.allclose(node.bucket_matrix(), [[2.0, 2.0]])
    node.convert_to_routing(0, 0.5, Node(), Node())
    assert node._matrix is None


def test_scan_kernel_validation():
    with pytest.raises(IndexError_):
        SemTreeConfig(scan_kernel="fortran")
    with pytest.raises(IndexError_):
        KDTree(2, scan_kernel="fortran")
    with pytest.raises(IndexError_):
        DeltaIndex(scan_kernel="fortran")
    with pytest.raises(IndexError_):
        LinearScanIndex(scan_kernel="fortran")
    assert SemTreeConfig().scan_kernel == kernels.DEFAULT_SCAN_KERNEL
    assert SemTreeConfig(scan_kernel="scalar").with_updates(bucket_size=4).scan_kernel \
        == "scalar"


def test_scan_kernel_survives_snapshot_round_trip(small_corpus, tmp_path):
    from repro.service.snapshot import load_index, save_index

    vocabularies = build_requirement_vocabularies(
        small_corpus.actor_names, small_corpus.parameter_values
    )
    distance = build_requirement_distance(vocabularies)
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=4, bucket_size=8, scan_kernel="scalar",
    ))
    index.add_triples(list(dict.fromkeys(small_corpus.all_triples()))[:32])
    index.build()
    save_index(index, tmp_path / "snap.json")
    warm = load_index(tmp_path / "snap.json", distance)
    assert warm.config.scan_kernel == "scalar"


def test_linear_scan_numpy_dimension_mismatch_raises_library_error():
    index = LinearScanIndex(_random_points(32, 2), scan_kernel="numpy")
    bad_query = LabeledPoint.of([0.1, 0.2, 0.3])
    with pytest.raises(IndexError_):
        index.k_nearest(bad_query, 3)
    with pytest.raises(IndexError_):
        index.range_query(bad_query, 0.5)


def test_squared_distances_rejects_a_mismatched_matrix():
    """Direct callers get the library error — also where NumPy would broadcast."""
    matrix = kernels.coordinate_matrix(_random_points(8, 3))
    for bad_query in ([0.1, 0.2], [0.1], np.zeros(4)):
        with pytest.raises(IndexError_, match="dimension mismatch"):
            kernels.squared_distances(matrix, bad_query)
    assert kernels.squared_distances(matrix, matrix[0])[0] == 0.0


def test_tree_entry_points_own_the_dimension_check():
    """The per-leaf kernels no longer re-validate: every traversal entry must."""
    from repro.errors import QueryError

    points = _random_points(64, 3)
    bad_query = LabeledPoint.of([0.5])  # would broadcast against (n, 3) silently
    sequential = KDTree.build_balanced(points, bucket_size=16)
    distributed = DistributedSemTree(SemTreeConfig(dimensions=3, bucket_size=16))
    distributed.insert_all(points)
    for search in (lambda: sequential.k_nearest_state(bad_query, 3),
                   lambda: sequential.range_query_state(bad_query, 0.5),
                   lambda: distributed.k_nearest_state(bad_query, 3),
                   lambda: distributed.range_query_state(bad_query, 0.5),
                   lambda: distributed.scan_partition_knn("P0", bad_query, 3),
                   lambda: distributed.scan_partition_range("P0", bad_query, 0.5)):
        with pytest.raises(QueryError):
            search()


def test_delta_numpy_dimension_mismatch_raises_library_error():
    delta = DeltaIndex(scan_kernel="numpy")
    for point in _random_points(32, 2):
        delta.add(point)
    bad_query = LabeledPoint.of([0.1, 0.2, 0.3])
    with pytest.raises(IndexError_):
        delta.k_nearest(bad_query, 3)
    with pytest.raises(IndexError_):
        delta.neighbours_within(bad_query, 0.5)


def test_sequential_baseline_builders_inherit_scan_kernel():
    from repro.baselines.sequential_adapter import SequentialKDTreeBaseline

    points = _random_points(64, 2)
    config = SemTreeConfig(dimensions=2, bucket_size=8, scan_kernel="scalar")
    assert SequentialKDTreeBaseline.balanced(points, config).tree.scan_kernel == "scalar"
    assert SequentialKDTreeBaseline.unbalanced_chain(points, config).tree.scan_kernel \
        == "scalar"
    assert SequentialKDTreeBaseline.by_dynamic_insertion(points, config).tree.scan_kernel \
        == "scalar"


def test_squared_distance_computed_without_sqrt():
    rng = random.Random(1)
    for dim in (1, 2, 8, 16):
        a = [rng.uniform(-5, 5) for _ in range(dim)]
        b = [rng.uniform(-5, 5) for _ in range(dim)]
        direct = squared_euclidean_distance(a, b)
        assert direct == pytest.approx(math.dist(a, b) ** 2, rel=1e-12)
    # Exactly representable inputs give the exact squared sum (no sqrt
    # round-trip in the middle).
    assert squared_euclidean_distance([0.0, 3.0], [4.0, 0.0]) == 25.0
    with pytest.raises(IndexError_):
        squared_euclidean_distance([1.0], [1.0, 2.0])


def test_note_partition_preserves_first_seen_order():
    state = KSearchState(query=LabeledPoint.of([0.0]), k=1)
    for partition_id in ("P2", "P0", "P2", "P1", "P0", "P2"):
        state.note_partition(partition_id)
    assert state.visited_partition_ids == ["P2", "P0", "P1"]
