"""Leaf-scan kernels — scalar per-point loop vs vectorized NumPy batch scan.

Every search bottoms out in leaf-bucket scans, so this is the hot path of
the serving QPS and mixed-throughput numbers.  The sweep times, per bucket
size and dimensionality:

* ``leaf_cold`` — one k-NN scan of a single leaf with an *empty* result set
  (no radius pruning possible; worst case for the vectorized kernel),
* ``leaf_warm`` — the same scan with a *full* result set (the backward-visit
  case: the squared-radius pre-filter drops most of the bucket before any
  Python-level work),
* ``tree_knn`` / ``tree_range`` — whole searches over a balanced KD-tree,
  i.e. leaf scans in their natural mix of cold and warm visits,

each with ``scan_kernel="scalar"`` and ``"numpy"``.  Results are asserted
tie-insensitive-identical between the kernels as part of the run.

Quick mode (``LEAF_SCAN_QUICK=1``, used by the CI perf-smoke job) shrinks
the sweep and only asserts the vectorized kernel is not slower at
``bucket_size >= 16``; its report goes to pytest's ``tmp_path``, never over
the committed full sweep.  The full report additionally asserts the >= 2x
speedup at ``bucket_size >= 16``, dims 8-16 that motivated the kernel layer.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

import pytest

from repro.core import kernels
from repro.core.kdtree import KDTree
from repro.core.knn import KSearchState
from repro.core.node import Node
from repro.core.point import LabeledPoint

from .conftest import write_report

QUICK = os.environ.get("LEAF_SCAN_QUICK", "") not in ("", "0")

BUCKET_SIZES = [16, 64] if QUICK else [4, 16, 64]
DIMS = [8] if QUICK else [2, 8, 16]
TREE_POINTS = 1024 if QUICK else 2048
LEAF_REPS = 400 if QUICK else 2000
TREE_REPS = 60 if QUICK else 200
ROUNDS = 3
QUERY_POOL = 64
K = 8


def _points(count: int, dim: int, seed: int = 7) -> List[LabeledPoint]:
    rng = random.Random(seed)
    return [
        LabeledPoint.of([rng.random() for _ in range(dim)], label=index)
        for index in range(count)
    ]


def _queries(dim: int, seed: int = 11) -> List[LabeledPoint]:
    rng = random.Random(seed)
    return [
        LabeledPoint.of([rng.random() for _ in range(dim)])
        for _ in range(QUERY_POOL)
    ]


def _best_of(rounds: int, reps: int, body) -> float:
    """Per-iteration seconds, best of ``rounds`` timed batches of ``reps``."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for rep in range(reps):
            body(rep)
        best = min(best, (time.perf_counter() - started) / reps)
    return best


def _leaf_scan_us(bucket_size: int, dim: int, kernel: str, *, warm: bool) -> float:
    """Micro-benchmark one leaf scan (fresh search state per scan).

    ``warm=False`` scans an in-range bucket with an *empty* result set (the
    forward-phase fill-up, worst case for vectorization: no pruning
    possible).  ``warm=True`` scans an out-of-radius bucket with a *full*
    result set — the dominant backward-visit case, where the squared-radius
    pre-filter drops the whole bucket before any Python-level work.
    """
    shift = 3.0 if warm else 0.0
    node = Node(bucket=[
        LabeledPoint.of([value + shift for value in point.coordinates],
                        label=point.label)
        for point in _points(bucket_size, dim)
    ])
    node.bucket_matrix()  # the cache is built once per bucket, not per scan
    queries = _queries(dim)
    # For the warm case, pre-fill each state's result set from a sibling
    # in-range bucket so the scan under test runs against a finite radius.
    sibling = Node(bucket=_points(bucket_size, dim, seed=23))
    sibling.bucket_matrix()
    k = min(K, bucket_size)

    def body(rep: int) -> None:
        state = KSearchState(query=queries[rep % QUERY_POOL], k=k)
        if warm:
            kernels.knn_scan_node(state, sibling, kernel)
        kernels.knn_scan_node(state, node, kernel)

    overhead = 0.0
    if warm:
        # Subtract the state setup + sibling scan so only the scan under
        # test is charged.
        def setup_only(rep: int) -> None:
            state = KSearchState(query=queries[rep % QUERY_POOL], k=k)
            kernels.knn_scan_node(state, sibling, kernel)

        overhead = _best_of(ROUNDS, LEAF_REPS, setup_only)
    return max(_best_of(ROUNDS, LEAF_REPS, body) - overhead, 1e-9) * 1e6


def _calibrated_radius(points, query) -> float:
    """A radius with comparable selectivity at every dimensionality.

    A fixed radius is hit-everything in 2-D and hit-nothing in 16-D; the
    distance to the 20th neighbour keeps every series querying a ball with
    the same expected result size.
    """
    from repro.baselines.linear_scan import LinearScanIndex

    return LinearScanIndex(points, scan_kernel="scalar").k_nearest(query, 20)[-1].distance


def _tree_search_us(bucket_size: int, dim: int, kernel: str) -> Dict[str, float]:
    """Whole k-NN / range searches over a balanced tree with one kernel."""
    points = _points(TREE_POINTS, dim)
    queries = _queries(dim)
    tree = KDTree.build_balanced(points, bucket_size=bucket_size, scan_kernel=kernel)
    radius = _calibrated_radius(points, queries[0])
    tree.k_nearest(queries[0], K)
    tree.range_query(queries[0], radius)
    knn = _best_of(ROUNDS, TREE_REPS, lambda rep: tree.k_nearest(queries[rep % QUERY_POOL], K))
    rng = _best_of(ROUNDS, TREE_REPS,
                   lambda rep: tree.range_query(queries[rep % QUERY_POOL], radius))
    return {"knn_us": knn * 1e6, "range_us": rng * 1e6}


def _assert_equivalent(bucket_size: int, dim: int) -> None:
    """Both kernels must answer identically (tie-insensitive) on this config."""
    points = _points(TREE_POINTS, dim)
    queries = _queries(dim)[:8]
    scalar_tree = KDTree.build_balanced(points, bucket_size=bucket_size,
                                        scan_kernel="scalar")
    numpy_tree = KDTree.build_balanced(points, bucket_size=bucket_size,
                                       scan_kernel="numpy")
    for query in queries:
        scalar_answer = [(round(n.distance, 9), n.point.label)
                         for n in scalar_tree.k_nearest(query, K)]
        numpy_answer = [(round(n.distance, 9), n.point.label)
                        for n in numpy_tree.k_nearest(query, K)]
        assert sorted(scalar_answer) == sorted(numpy_answer)


# -- pytest-benchmark cases ---------------------------------------------------------------

@pytest.mark.benchmark(group="leaf-scan-kernel")
@pytest.mark.parametrize("kernel", ["scalar", "numpy"])
def test_benchmark_tree_knn(benchmark, kernel):
    tree = KDTree.build_balanced(_points(TREE_POINTS, 8), bucket_size=16,
                                 scan_kernel=kernel)
    queries = _queries(8)
    position = iter(range(10**9))
    benchmark(lambda: tree.k_nearest(queries[next(position) % QUERY_POOL], K))


# -- the report ---------------------------------------------------------------------------

def test_report_leaf_scan_kernel(results_dir, tmp_path):
    from repro.evaluation import Experiment

    experiment = Experiment(
        experiment_id="leaf_scan",
        description=(
            "Leaf-scan kernels: scalar per-point loop vs vectorized NumPy batch "
            f"scan. leaf_cold/leaf_warm = one bucket scan (empty / full result "
            f"set, k={K}); tree_knn/tree_range = whole searches over a balanced "
            f"{TREE_POINTS}-point KD-tree (range radius calibrated to the "
            "20-NN distance so selectivity is comparable across dims). "
            "x = bucket size; one series per dimensionality. Answers are "
            "asserted identical between kernels."
        ),
        swept_parameter="bucket_size",
    )
    for dim in DIMS:
        for bucket_size in BUCKET_SIZES:
            _assert_equivalent(bucket_size, dim)
            metrics: Dict[str, float] = {}
            for warm in (False, True):
                label = "leaf_warm" if warm else "leaf_cold"
                scalar = _leaf_scan_us(bucket_size, dim, "scalar", warm=warm)
                vector = _leaf_scan_us(bucket_size, dim, "numpy", warm=warm)
                metrics[f"{label}_scalar_us"] = scalar
                metrics[f"{label}_numpy_us"] = vector
                metrics[f"{label}_speedup"] = scalar / vector
            scalar_tree = _tree_search_us(bucket_size, dim, "scalar")
            numpy_tree = _tree_search_us(bucket_size, dim, "numpy")
            metrics["tree_knn_scalar_us"] = scalar_tree["knn_us"]
            metrics["tree_knn_numpy_us"] = numpy_tree["knn_us"]
            metrics["tree_knn_speedup"] = scalar_tree["knn_us"] / numpy_tree["knn_us"]
            metrics["tree_range_scalar_us"] = scalar_tree["range_us"]
            metrics["tree_range_numpy_us"] = numpy_tree["range_us"]
            metrics["tree_range_speedup"] = (
                scalar_tree["range_us"] / numpy_tree["range_us"]
            )
            experiment.record(f"dim{dim}", float(bucket_size), **metrics)

    write_report(tmp_path if QUICK else results_dir, experiment, [
        "leaf_cold_speedup", "leaf_warm_speedup",
        "tree_knn_speedup", "tree_range_speedup",
        "tree_knn_scalar_us", "tree_knn_numpy_us",
    ])

    # Perf-smoke shape (always): the vectorized kernel must not be slower
    # than the scalar path at bucket_size >= 16.
    for dim in DIMS:
        series = experiment.series[f"dim{dim}"]
        for x, knn_speedup, range_speedup in zip(
                series.xs(), series.values("tree_knn_speedup"),
                series.values("tree_range_speedup")):
            if x >= 16:
                assert knn_speedup >= 1.0, (
                    f"numpy kernel slower than scalar: k-NN {knn_speedup:.2f}x "
                    f"at bucket_size={x:.0f}, dim={dim}"
                )
            # Below RANGE_VECTOR_MIN both kernels run the identical scalar
            # loop for range scans (hybrid cutoff), so a speedup bound there
            # would assert on pure timing noise.
            if x >= kernels.RANGE_VECTOR_MIN:
                assert range_speedup >= 1.0, (
                    f"numpy kernel slower than scalar: range {range_speedup:.2f}x "
                    f"at bucket_size={x:.0f}, dim={dim}"
                )

    # Full-report shape: the >= 2x win that motivated the kernel layer, for
    # leaf scans across the tree at bucket_size >= 16, dims 8-16.
    if not QUICK:
        for dim in (8, 16):
            series = experiment.series[f"dim{dim}"]
            for x, speedup in zip(series.xs(), series.values("tree_knn_speedup")):
                if x >= 16:
                    assert speedup >= 2.0, (
                        f"expected >= 2x k-NN speedup, got {speedup:.2f}x at "
                        f"bucket_size={x:.0f}, dim={dim}"
                    )
