"""The delta segment: freshly inserted points, queryable before compaction.

The delta is the memtable of the LSM analogy: an append-only, in-memory list
of FastMap-projected points that absorbs the insert stream while the
distributed tree stays immutable between compactions.  Queries linear-scan
it — it is bounded by the compaction threshold, so the scan is a small
constant on top of the tree search — and the merge is *exact*:

* k-NN: the merged top-``k`` of tree ∪ delta is a subset of the tree's own
  top-``k`` plus the delta (extra candidates can only displace tree points,
  never resurrect one the tree already ranked out), so offering every delta
  point to the tree's result list reproduces a from-scratch rebuild.
* range: results are a plain union — ``range(tree ∪ delta) =
  range(tree) ∪ range(delta)``.

Appends and snapshots are guarded by a mutex; snapshots are immutable
tuples, so readers merge against a frozen prefix of the insert stream
(linearizable visibility) while inserters keep appending.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.core.kernels import DEFAULT_SCAN_KERNEL, validate_scan_kernel
from repro.core.knn import Neighbour
from repro.core.point import LabeledPoint, euclidean_distance

__all__ = ["DeltaIndex"]


class DeltaIndex:
    """The in-memory linear-scan segment of an :class:`IngestingIndex`.

    With the default ``"numpy"`` scan kernel the overlay scan runs as one
    matrix pass over a lazily-built coordinate matrix, rebuilt only after the
    delta has changed (append or drain); the ``"scalar"`` kernel keeps the
    original per-point loop as the correctness oracle.
    """

    def __init__(self, scan_kernel: str = DEFAULT_SCAN_KERNEL) -> None:
        self._lock = threading.Lock()
        self._points: List[LabeledPoint] = []
        self._labels: Set[Any] = set()
        self.scan_kernel = validate_scan_kernel(scan_kernel)
        self._matrix: Optional[np.ndarray] = None

    # -- writes -------------------------------------------------------------------------

    def add(self, point: LabeledPoint) -> None:
        """Append one projected point."""
        with self._lock:
            self._points.append(point)
            self._labels.add(point.label)
            self._matrix = None

    def drain(self) -> Tuple[LabeledPoint, ...]:
        """Atomically take every point out (compaction) and return them."""
        with self._lock:
            points = tuple(self._points)
            self._points = []
            self._labels = set()
            self._matrix = None
            return points

    # -- reads --------------------------------------------------------------------------

    def points(self) -> Tuple[LabeledPoint, ...]:
        """An immutable snapshot of the current delta contents."""
        with self._lock:
            return tuple(self._points)

    def _snapshot(self) -> Tuple[Tuple[LabeledPoint, ...], Optional[np.ndarray]]:
        """A consistent (points, matrix) pair; the matrix is rebuilt lazily.

        Both the cached matrix and the returned tuple cover the same frozen
        prefix of the insert stream — appends after the snapshot produce a
        fresh matrix on the next read instead of mutating this one.  The
        scalar oracle never needs (or pays for) the matrix.
        """
        with self._lock:
            points = tuple(self._points)
            if not points or self.scan_kernel != "numpy":
                return points, None
            if self._matrix is None:
                self._matrix = kernels.coordinate_matrix(points)
            return points, self._matrix

    def all_neighbours(self, query: LabeledPoint) -> List[Neighbour]:
        """Every delta point with its distance to ``query``.

        Every distance must be materialised here, so there is nothing for the
        vectorized kernel to prune — both kernels run the same exact loop.
        k-NN merges should prefer :meth:`k_nearest`, which only pays for the
        ``k`` winners.
        """
        return [
            Neighbour(point, euclidean_distance(query, point))
            for point in self.points()
        ]

    def k_nearest(self, query: LabeledPoint, k: int) -> List[Neighbour]:
        """The delta's own ``k`` closest points (k-NN merge side).

        The merged top-``k`` of tree ∪ delta can contain at most ``k`` delta
        points, so this is all the overlay needs.  Under the ``"numpy"``
        kernel the selection runs on one squared-distance matrix pass and
        only the winners get an exact ``math.dist`` distance.
        """
        points, matrix = self._snapshot()
        return kernels.linear_knn(points, query, k, matrix, kernel=self.scan_kernel)

    def neighbours_within(self, query: LabeledPoint, radius: float) -> List[Neighbour]:
        """Delta points within ``radius`` of ``query``, closest first (range merge side)."""
        points, matrix = self._snapshot()
        return kernels.linear_range(points, query, radius, matrix,
                                    kernel=self.scan_kernel)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def __contains__(self, label: object) -> bool:
        """True when a delta point carries ``label`` (a triple)."""
        with self._lock:
            return label in self._labels

    def __repr__(self) -> str:
        return f"DeltaIndex(points={len(self)})"
