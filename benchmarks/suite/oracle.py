"""Answer checks against a brute-force scan of the embedded points.

Distances must match the linear scan exactly (both sides compute
``math.dist`` on the same coordinates); membership may differ only among
points at equal distance, so each returned label is checked to lie at the
distance it was reported with rather than to be one particular tied point.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core import kernels
from repro.core.point import LabeledPoint
from repro.io.serialization import triple_from_dict

from .corpora import Request

__all__ = ["Verdict", "PointOracle", "sample", "matches_of", "check_responses"]


@dataclass
class Verdict:
    checked: int = 0
    mismatched: int = 0
    examples: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.mismatched += 1
        if len(self.examples) < 3:
            self.examples.append(message)


def sample(items: Sequence[Any], count: int, seed: int) -> List[Any]:
    if len(items) <= count:
        return list(items)
    return random.Random(seed).sample(list(items), count)


class PointOracle:
    """Linear-scan k-NN / range over a fixed point set."""

    def __init__(self, points: Iterable[LabeledPoint], *, kernel: str):
        self.points = list(points)
        self.kernel = kernel
        self.matrix = kernels.coordinate_matrix(self.points) if kernel == "numpy" else None
        self.coordinates: Dict[Any, Tuple[float, ...]] = {
            point.label: point.coordinates for point in self.points}

    def distances(self, op: str, query: LabeledPoint, parameter: float) -> List[float]:
        if op == "knn":
            found = kernels.linear_knn(self.points, query, int(parameter), self.matrix,
                                       kernel=self.kernel)
        else:
            found = kernels.linear_range(self.points, query, parameter, self.matrix,
                                         kernel=self.kernel)
        return [neighbour.distance for neighbour in found]

    def check(self, verdict: Verdict, op: str, query: LabeledPoint, parameter: float,
              got: Sequence[Tuple[Any, float]]) -> None:
        """``got`` is the program's answer as ``(label, distance)`` pairs."""
        verdict.checked += 1
        expected = self.distances(op, query, parameter)
        reported = [distance for _, distance in got]
        if reported != expected:
            verdict.fail(f"{op}({parameter}): distances {reported[:4]}... != "
                         f"oracle {expected[:4]}... ({len(reported)} vs {len(expected)})")
            return
        self.check_membership(verdict, op, query, got, count=False)

    def check_membership(self, verdict: Verdict, op: str, query: LabeledPoint,
                         got: Sequence[Tuple[Any, float]], *, count: bool = True) -> None:
        """Every match is a stored point lying at its reported distance, in order."""
        if count:
            verdict.checked += 1
        previous = 0.0
        for label, distance in got:
            coordinates = self.coordinates.get(label)
            if coordinates is None or math.dist(query.coordinates, coordinates) != distance:
                verdict.fail(f"{op}: {label} reported at {distance} is not a stored point "
                             "at that distance")
                return
            if distance < previous:
                verdict.fail(f"{op}: matches are not sorted by distance")
                return
            previous = distance


def matches_of(raw: bytes) -> List[Tuple[Any, float]]:
    """``(triple, distance)`` pairs of one ``/v1/knn`` or ``/v1/range`` response."""
    body = json.loads(raw)
    return [(triple_from_dict(match["triple"]), match["distance"])
            for match in body["matches"]]


def check_responses(oracle: PointOracle, embed, kept: Sequence[Tuple[Request, bytes]],
                    *, exact: bool = True) -> Verdict:
    """Check kept ``(request, response body)`` pairs; ``embed`` maps a triple to its point.

    ``exact=False`` checks membership only — for reads that raced with
    inserts, where the exact answer depends on which inserts had landed.
    """
    verdict = Verdict()
    for request, raw in kept:
        query = embed(request.triple)
        got = matches_of(raw)
        if exact:
            oracle.check(verdict, request.op, query, request.parameter, got)
        else:
            oracle.check_membership(verdict, request.op, query, got)
    return verdict
