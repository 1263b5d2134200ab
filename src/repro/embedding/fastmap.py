"""FastMap — Faloutsos & Lin (1995), cited as [12] by the paper.

FastMap embeds objects of an arbitrary metric (or quasi-metric) space into a
k-dimensional Euclidean space using only the pairwise distance function.
The paper uses it to map triples, "together with related distances, into a
vectorial space ... on which it is possible to define an efficient indexing
structure".

The classical algorithm, reproduced here:

1. For each target dimension, choose two *pivot* objects that are far apart
   (the heuristic: start from a random object, walk to its farthest object a
   constant number of times).
2. Project every object on the line defined by the two pivots with the
   cosine-law formula::

       x_i = (d(o_i, p_a)^2 + d(p_a, p_b)^2 - d(o_i, p_b)^2) / (2 d(p_a, p_b))

3. Recurse on the *residual* distance

       d'(o_i, o_j)^2 = d(o_i, o_j)^2 - (x_i - x_j)^2

   for the remaining dimensions (clamped at zero, because real semantic
   distances are rarely perfectly Euclidean).

:meth:`FastMap.fit` does all of this a *row* at a time — the base distances
from one object to all ``n`` fitted objects as one ``float64`` array — so the
residual, the farthest-object walk and the projection are NumPy over all
objects.  A distance that can produce such rows itself (``rows_to``, which
the triple distance answers from term tables) is asked for them; any other
callable is looped over pair by pair.  Either way the result is bit-identical
to evaluating the formulas above one pair at a time, because every array
step is the same IEEE operation in the same order: ``squared -= delta *
delta`` per dimension in ascending order, a square root only where
``squared > 0`` (else ``+0.0``), the first maximum on ties.
``tests/embedding/test_fastmap_exactness.py`` keeps the pair-at-a-time fit
as the reference and compares with ``==``.

The implementation also supports projecting *out-of-sample* objects (query
triples) into an already-computed space, which is what SemTree uses at
query time; that path evaluates the distance pair by pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generic, Hashable, List, Sequence,
                    Tuple, TypeVar)

import numpy as np

from repro.errors import EmbeddingError

__all__ = ["FastMap", "FastMapSpace", "PivotPair"]

ObjectT = TypeVar("ObjectT", bound=Hashable)

#: A distance function over arbitrary objects.
DistanceFunction = Callable[[ObjectT, ObjectT], float]


@dataclass(frozen=True, slots=True)
class PivotPair(Generic[ObjectT]):
    """The two pivot objects chosen for one FastMap dimension, and their distance."""

    first: ObjectT
    second: ObjectT
    distance: float


@dataclass
class FastMapSpace(Generic[ObjectT]):
    """The result of a FastMap embedding.

    Attributes
    ----------
    dimensions:
        Number of embedding dimensions actually produced (may be lower than
        requested when the residual distance collapses to zero).
    objects:
        The embedded objects, in input order.
    coordinates:
        ``(len(objects), dimensions)`` array of coordinates.
    pivots:
        One :class:`PivotPair` per dimension.
    """

    dimensions: int
    objects: List[ObjectT]
    coordinates: np.ndarray
    pivots: List[PivotPair[ObjectT]]
    _index_of: Dict[ObjectT, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index_of:
            self._index_of = {obj: i for i, obj in enumerate(self.objects)}

    def coordinates_of(self, obj: ObjectT) -> np.ndarray:
        """Coordinates of an in-sample object.

        Raises
        ------
        EmbeddingError
            If the object was not part of the embedded set.
        """
        index = self._index_of.get(obj)
        if index is None:
            raise EmbeddingError("object was not part of the embedded set")
        return self.coordinates[index]

    def __contains__(self, obj: ObjectT) -> bool:
        return obj in self._index_of

    def __len__(self) -> int:
        return len(self.objects)

    # -- snapshot support ------------------------------------------------------------

    def to_payload(self, serialise: Callable[[ObjectT], Any]) -> Dict[str, Any]:
        """Serialise the space to a JSON-compatible payload.

        ``serialise`` converts one embedded object (e.g. a triple) to a
        JSON-compatible value.  Pivots are stored as indices into the object
        list — they are always members of the fitted set.
        """
        return {
            "dimensions": self.dimensions,
            "objects": [serialise(obj) for obj in self.objects],
            "coordinates": self.coordinates.tolist(),
            "pivots": [
                {
                    "first": self._index_of[pivot.first],
                    "second": self._index_of[pivot.second],
                    "distance": pivot.distance,
                }
                for pivot in self.pivots
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     deserialise: Callable[[Any], ObjectT]) -> "FastMapSpace[ObjectT]":
        """Inverse of :meth:`to_payload`."""
        objects = [deserialise(entry) for entry in payload["objects"]]
        dimensions = int(payload["dimensions"])
        coordinates = np.asarray(payload["coordinates"], dtype=float)
        coordinates = coordinates.reshape(len(objects), dimensions)
        pivots = [
            PivotPair(objects[entry["first"]], objects[entry["second"]],
                      float(entry["distance"]))
            for entry in payload["pivots"]
        ]
        return cls(dimensions=dimensions, objects=objects,
                   coordinates=coordinates, pivots=pivots)


class FastMap(Generic[ObjectT]):
    """FastMap embedder over an arbitrary distance function.

    Parameters
    ----------
    distance:
        The (symmetric, non-negative) distance function between objects.
    dimensions:
        Number of target dimensions ``k``.
    pivot_iterations:
        Number of "walk to the farthest object" steps of the pivot
        heuristic (Faloutsos & Lin use a small constant; 5 by default).
    seed:
        Seed of the internal random generator, for reproducible pivots.
    """

    def __init__(self, distance: DistanceFunction, dimensions: int = 4,
                 *, pivot_iterations: int = 5, seed: int | None = 0):
        if dimensions < 1:
            raise EmbeddingError(f"dimensions must be >= 1, got {dimensions}")
        if pivot_iterations < 1:
            raise EmbeddingError(f"pivot_iterations must be >= 1, got {pivot_iterations}")
        self._distance = distance
        self.dimensions = dimensions
        self.pivot_iterations = pivot_iterations
        self._random = random.Random(seed)
        #: Count of distance-function evaluations performed by the last fit.
        self.distance_evaluations = 0

    # -- internal helpers -------------------------------------------------------------

    def _base_distance(self, a: ObjectT, b: ObjectT) -> float:
        self.distance_evaluations += 1
        value = self._distance(a, b)
        if value < 0:
            raise EmbeddingError(f"distance function returned a negative value: {value}")
        return value

    def _base_rows(self, objects: Sequence[ObjectT]) -> Callable[[int], np.ndarray]:
        """The function ``i -> [distance(objects[i], o) for o in objects]`` as ``float64`` arrays.

        A distance that can assemble whole rows itself (``rows_to``, see
        :meth:`repro.semantics.triple_distance.TripleDistance.rows_to`) is
        asked to; any other callable is evaluated pair by pair.
        """
        rows_to = getattr(self._distance, "rows_to", None)
        if rows_to is not None:
            rows = rows_to(objects)
        else:
            distance = self._distance

            def rows(obj: ObjectT) -> np.ndarray:
                return np.array([distance(obj, other) for other in objects], dtype=float)

        def base_row(index: int) -> np.ndarray:
            row = rows(objects[index])
            self.distance_evaluations += len(objects)
            negative = row < 0
            if negative.any():
                raise EmbeddingError(
                    f"distance function returned a negative value: {float(row[negative][0])}")
            return row

        return base_row

    @staticmethod
    def _residual_row(index: int, base_row: Callable[[int], np.ndarray],
                      coordinates: np.ndarray, upto_dimension: int) -> np.ndarray:
        """Distances from object ``index`` to every object after ``upto_dimension`` projections."""
        base = base_row(index)
        squared = base * base
        for dim in range(upto_dimension):
            delta = coordinates[index, dim] - coordinates[:, dim]
            squared -= delta * delta
        # Clamp at zero; the zero-filled output keeps the clamp at +0.0, never -0.0.
        residual = np.zeros_like(squared)
        np.sqrt(squared, out=residual, where=squared > 0)
        return residual

    def _choose_pivots(self, base_row: Callable[[int], np.ndarray],
                       coordinates: np.ndarray, dimension: int) -> Tuple[int, int, float]:
        """The farthest-pair heuristic in the residual space of ``dimension``."""
        pivot_b = self._random.randrange(len(coordinates))
        pivot_a = pivot_b
        best_distance = 0.0
        for _ in range(self.pivot_iterations):
            distances = self._residual_row(pivot_b, base_row, coordinates, dimension)
            farthest = int(np.argmax(distances))
            best_distance = float(distances[farthest])
            if farthest == pivot_b:
                break
            pivot_a, pivot_b = pivot_b, farthest
        return pivot_a, pivot_b, best_distance

    # -- fitting -----------------------------------------------------------------------

    def fit(self, objects: Sequence[ObjectT]) -> FastMapSpace[ObjectT]:
        """Embed ``objects`` and return the resulting :class:`FastMapSpace`.

        Raises
        ------
        EmbeddingError
            If fewer than two objects are supplied.
        """
        objects = list(objects)
        if len(objects) < 2:
            raise EmbeddingError("FastMap needs at least two objects to embed")
        self.distance_evaluations = 0
        coordinates = np.zeros((len(objects), self.dimensions), dtype=float)
        pivots: List[PivotPair[ObjectT]] = []
        base_row = self._base_rows(objects)

        produced = 0
        for dimension in range(self.dimensions):
            index_a, index_b, pivot_distance = self._choose_pivots(
                base_row, coordinates, dimension
            )
            if pivot_distance <= 0.0:
                # Residual space collapsed: every remaining coordinate is 0.
                break
            pivots.append(
                PivotPair(objects[index_a], objects[index_b], pivot_distance)
            )
            d_ab_sq = pivot_distance * pivot_distance
            d_a = self._residual_row(index_a, base_row, coordinates, dimension)
            d_b = self._residual_row(index_b, base_row, coordinates, dimension)
            coordinates[:, dimension] = (d_a * d_a + d_ab_sq - d_b * d_b) / (2.0 * pivot_distance)
            produced = dimension + 1

        if produced == 0:
            # All objects are at distance 0 from each other; a single flat
            # dimension still lets the index operate (every point identical).
            produced = 1

        return FastMapSpace(
            dimensions=produced,
            objects=objects,
            coordinates=coordinates[:, :produced].copy(),
            pivots=pivots,
        )

    # -- out-of-sample projection ---------------------------------------------------------

    def project(self, obj: ObjectT, space: FastMapSpace[ObjectT]) -> np.ndarray:
        """Project an out-of-sample object (e.g. a query triple) into ``space``.

        The projection repeats the cosine-law formula against the stored
        pivots, using residual distances computed on the fly.
        """
        if obj in space:
            return space.coordinates_of(obj).copy()
        coordinates = np.zeros(space.dimensions, dtype=float)
        for dimension, pivot in enumerate(space.pivots):
            d_ab = pivot.distance
            d_a = self._projected_residual(obj, pivot.first, space, coordinates, dimension)
            d_b = self._projected_residual(obj, pivot.second, space, coordinates, dimension)
            coordinates[dimension] = (d_a * d_a + d_ab * d_ab - d_b * d_b) / (2.0 * d_ab)
        return coordinates

    def _projected_residual(self, obj: ObjectT, pivot: ObjectT, space: FastMapSpace[ObjectT],
                            partial: np.ndarray, upto_dimension: int) -> float:
        base = self._base_distance(obj, pivot)
        squared = base * base
        pivot_coordinates = space.coordinates_of(pivot)
        for dim in range(upto_dimension):
            delta = partial[dim] - pivot_coordinates[dim]
            squared -= delta * delta
        return math.sqrt(squared) if squared > 0 else 0.0

    def fit_transform(self, objects: Sequence[ObjectT]) -> Tuple[FastMapSpace[ObjectT], np.ndarray]:
        """Convenience: fit and also return the coordinate matrix."""
        space = self.fit(objects)
        return space, space.coordinates
