"""``FastMap.fit`` works on rows; every bit of its result must equal the scalar fit's.

:class:`ScalarFastMap` below *is* the scalar fit the library shipped before
the build path was vectorised — one distance call per (object, reference)
pair, ``math.sqrt`` per residual — kept here as the reference.  Nothing in
this module compares with a tolerance: coordinates go through
``tobytes()``, everything else through ``==``.

The same holds one layer down: the suite corpus built and projected with the
library's bit-parallel Levenshtein equals the one built with the textbook
table, ``_reference_levenshtein`` of ``tests/semantics/test_string_distance.py``.
"""

from __future__ import annotations

import math
import pathlib
import sys
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import FastMap
from repro.embedding.fastmap import FastMapSpace, PivotPair
from repro.errors import EmbeddingError
from repro.rdf import Concept, Literal, Triple
from repro.requirements import build_requirement_distance, build_requirement_vocabularies
from repro.semantics import DistanceWeights, TermDistance, TripleDistance
from repro.service.snapshot import save_index

# The benchmark suite's corpora, imported the way its own entry point does.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks"))
from suite import corpora  # noqa: E402

# The string-distance oracle, kept next to the tests of the kernel it checks.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "semantics"))
from test_string_distance import _reference_levenshtein  # noqa: E402


class ScalarFastMap(FastMap):
    """The reference: FastMap's fit as scalar loops over a pairwise distance."""

    #: Residuals whose square went below zero (tests check the clamp is exercised).
    clamped_negative = 0

    def _residual_distance(self, a_index: int, b_index: int, objects: Sequence,
                           coordinates: np.ndarray, upto_dimension: int) -> float:
        self.distance_evaluations += 1
        base = self._base_distance(objects[a_index], objects[b_index])
        squared = base * base
        for dim in range(upto_dimension):
            delta = coordinates[a_index, dim] - coordinates[b_index, dim]
            squared -= delta * delta
        self.clamped_negative += squared < 0
        return math.sqrt(squared) if squared > 0 else 0.0

    def _scalar_pivots(self, objects: Sequence, coordinates: np.ndarray,
                       dimension: int) -> Tuple[int, int, float]:
        n = len(objects)
        pivot_b = self._random.randrange(n)
        pivot_a = pivot_b
        best_distance = 0.0
        for _ in range(self.pivot_iterations):
            distances = [
                self._residual_distance(pivot_b, i, objects, coordinates, dimension)
                for i in range(n)
            ]
            farthest = int(np.argmax(distances))
            best_distance = distances[farthest]
            if farthest == pivot_b:
                break
            pivot_a, pivot_b = pivot_b, farthest
        return pivot_a, pivot_b, best_distance

    def fit(self, objects: Sequence) -> FastMapSpace:
        objects = list(objects)
        if len(objects) < 2:
            raise EmbeddingError("FastMap needs at least two objects to embed")
        self.distance_evaluations = 0
        n = len(objects)
        coordinates = np.zeros((n, self.dimensions), dtype=float)
        pivots: List[PivotPair] = []
        produced = 0
        for dimension in range(self.dimensions):
            index_a, index_b, pivot_distance = self._scalar_pivots(
                objects, coordinates, dimension)
            if pivot_distance <= 0.0:
                break
            pivots.append(PivotPair(objects[index_a], objects[index_b], pivot_distance))
            d_ab_sq = pivot_distance * pivot_distance
            for i in range(n):
                d_ai = self._residual_distance(index_a, i, objects, coordinates, dimension)
                d_bi = self._residual_distance(index_b, i, objects, coordinates, dimension)
                coordinates[i, dimension] = (
                    (d_ai * d_ai + d_ab_sq - d_bi * d_bi) / (2.0 * pivot_distance)
                )
            produced = dimension + 1
        if produced == 0:
            produced = 1
        return FastMapSpace(dimensions=produced, objects=objects,
                            coordinates=coordinates[:, :produced].copy(), pivots=pivots)


def assert_same_fit(distance, objects, *, dimensions: int, seed: int) -> FastMapSpace:
    """Fit both ways and compare everything a fit produces; returns the new fit's space."""
    fast, reference = (cls(distance, dimensions=dimensions, seed=seed)
                       for cls in (FastMap, ScalarFastMap))
    space, expected = fast.fit(objects), reference.fit(objects)
    assert space.dimensions == expected.dimensions
    assert space.coordinates.shape == expected.coordinates.shape
    assert space.coordinates.tobytes() == expected.coordinates.tobytes()
    assert space.pivots == expected.pivots
    assert all(type(pivot.distance) is float for pivot in space.pivots)
    assert space.objects == expected.objects
    assert fast.distance_evaluations == reference.distance_evaluations
    # Both consumed the pivot generator identically.
    assert fast._random.getstate() == reference._random.getstate()
    return space


# -- (a) + (d): the suite's requirements corpora, end to end -------------------------------

@pytest.mark.parametrize("seed, triples", [(11, 240), (12, 240), (13, 240), (11, 960)])
def test_suite_corpus_builds_the_same_index(seed, triples, tmp_path):
    inputs = corpora.requirements_inputs(seed, triples)
    distance = corpora.requirements_distance(inputs)

    built = corpora.requirements_index(inputs, distance)
    reference = corpora.requirements_index(inputs, distance)
    scalar = ScalarFastMap(distance, dimensions=reference.config.dimensions)
    reference.embedder._fastmap = scalar
    corpora.build_requirements_index(built)
    corpora.build_requirements_index(reference)

    space, expected = built.embedder.space, reference.embedder.space
    assert space.dimensions == expected.dimensions == 8
    assert space.coordinates.tobytes() == expected.coordinates.tobytes()
    assert space.pivots == expected.pivots
    assert built.embedder._fastmap.distance_evaluations == scalar.distance_evaluations
    assert scalar.distance_evaluations == 56 * triples   # 8 dims x (5 walks + 2)

    for index, name in ((built, "built.json"), (reference, "reference.json")):
        save_index(index, tmp_path / name, vocabulary=inputs.vocabulary_hints)
    assert (tmp_path / "built.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    for query in inputs.query_triples[:25]:
        assert built.embed_query(query).coordinates == reference.embed_query(query).coordinates
        assert built.k_nearest(query, 5) == reference.k_nearest(query, 5)
        assert built.range_query(query, 0.2) == reference.range_query(query, 0.2)


def test_projection_leaves_the_fit_count_alone():
    """``distance_evaluations`` counts the last fit; projections run on many threads at once."""
    inputs = corpora.requirements_inputs(11, 240)
    index = corpora.build_requirements_index(corpora.requirements_index(inputs))
    fastmap = index.embedder._fastmap
    assert fastmap.distance_evaluations == 56 * 240
    for triple in inputs.query_triples[:50]:
        index.embed_query(triple)
    assert fastmap.distance_evaluations == 56 * 240


def _reference_normalised_levenshtein(a: str, b: str) -> float:
    """``normalised_levenshtein`` over the dynamic-programming table."""
    if a == b:
        return 0.0
    return _reference_levenshtein(a, b) / max(len(a), len(b))


@pytest.mark.parametrize("seed", [11, 12])
def test_the_string_kernel_builds_and_projects_like_the_table(seed):
    inputs = corpora.requirements_inputs(seed, 240)
    vocabularies = build_requirement_vocabularies(list(inputs.actors), inputs.parameters)
    kernel = build_requirement_distance(vocabularies)
    table = TripleDistance(
        TermDistance(vocabularies, string_distance=_reference_normalised_levenshtein),
        kernel.weights)
    built, reference = (corpora.build_requirements_index(corpora.requirements_index(inputs, d))
                        for d in (kernel, table))

    space, expected = built.embedder.space, reference.embedder.space
    assert space.coordinates.tobytes() == expected.coordinates.tobytes()
    assert space.pivots == expected.pivots
    for triple in inputs.query_triples[:200] + inputs.insert_triples[:200]:
        assert built.embed_query(triple).coordinates == reference.embed_query(triple).coordinates


# -- (b): a table row is the scalar distance, entry by entry -------------------------------

VOCABULARIES = build_requirement_vocabularies(["OBSW001", "OBSW002", "HWD001"])
KNOWN_NAMES = sorted({name for vocabulary in VOCABULARIES.values()
                      for name in vocabulary.taxonomy.concepts()})

names = st.one_of(st.sampled_from(KNOWN_NAMES),           # in some taxonomy
                  st.text("abcm-_", min_size=1, max_size=6))   # in none
concepts = st.builds(Concept, names,
                     st.sampled_from(["", "Fun", "CmdType", "Nope", "Other"]))
literals = st.builds(Literal, st.text("abc 01", max_size=5),
                     st.sampled_from(["string", "integer"]))
terms = st.one_of(concepts, literals)
triples = st.builds(Triple, terms, terms, terms)
weights = st.sampled_from([
    DistanceWeights(), DistanceWeights(0.4, 0.2, 0.4), DistanceWeights(0.0, 0.5, 0.5),
    DistanceWeights(0.7, 0.0, 0.3), DistanceWeights(1.0, 0.0, 0.0),
    DistanceWeights.normalised(3.0, 1.0, 7.0),
])


@settings(max_examples=120, deadline=None)
@given(references=st.lists(triples, min_size=1, max_size=12), extra=st.lists(triples, max_size=4),
       chosen=weights, repeat=st.integers(0, 3))
def test_every_row_entry_equals_the_scalar_distance(references, extra, chosen, repeat):
    references = references + references[:repeat]        # duplicate triples
    distance = build_requirement_distance(VOCABULARIES).with_weights(chosen)
    rows = distance.rows_to(references)
    for triple in references + extra:
        row = rows(triple)
        assert row.dtype == np.float64 and row.shape == (len(references),)
        assert row.tolist() == [distance(triple, other) for other in references]
        assert not np.signbit(row).any()


def test_rows_are_inherited_and_bypass_an_overridden_distance(requirement_distance):
    """What the suite's traced runs rely on: a counting subclass gets the same table."""

    class Counting(TripleDistance):
        calls = 0

        def distance(self, triple_a, triple_b):
            self.calls += 1
            return super().distance(triple_a, triple_b)

    counting = Counting(requirement_distance.term_distance, requirement_distance.weights)
    objects = [Triple.of("OBSW001", "Fun:accept_cmd", "CmdType:start-up"),
               Triple.of("OBSW002", "Fun:block_cmd", "CmdType:shutdown"),
               Triple.of("OBSW003", "Fun:send_msg", "MsgType:heartbeat")]
    space = FastMap(counting, dimensions=2, seed=0).fit(objects)
    expected = ScalarFastMap(requirement_distance, dimensions=2, seed=0).fit(objects)
    assert space.coordinates.tobytes() == expected.coordinates.tobytes()
    assert counting.calls == 0


@settings(max_examples=40, deadline=None)
@given(objects=st.lists(triples, min_size=2, max_size=14, unique=True), chosen=weights,
       dimensions=st.integers(1, 5), seed=st.integers(0, 50))
def test_fit_over_generated_triples(objects, chosen, dimensions, seed):
    distance = build_requirement_distance(VOCABULARIES).with_weights(chosen)
    assert_same_fit(distance, objects, dimensions=dimensions, seed=seed)


# -- (c): opaque callables get their rows from a loop over the same callable ---------------

coordinate = st.floats(-50.0, 50.0, allow_nan=False, width=64)
planar = st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=14, unique=True)


def euclidean(a, b) -> float:
    return math.dist(a, b)


def non_metric(a, b) -> float:
    """Symmetric, zero on the diagonal, triangle inequality badly broken: residuals go negative."""
    return 0.0 if a == b else 1.0 + (hash((min(a, b), max(a, b))) % 97) ** 2 / 13.0


@settings(max_examples=60, deadline=None)
@given(objects=planar, dimensions=st.integers(1, 4), seed=st.integers(0, 50),
       distance=st.sampled_from([euclidean, non_metric]))
def test_fit_over_opaque_callables(objects, dimensions, seed, distance):
    assert_same_fit(distance, objects, dimensions=dimensions, seed=seed)


def test_the_non_metric_fixture_drives_residuals_negative():
    objects = [(float(i), float(i * i % 7)) for i in range(12)]
    reference = ScalarFastMap(non_metric, dimensions=4, seed=3)
    reference.fit(objects)
    assert reference.clamped_negative > 0
    assert_same_fit(non_metric, objects, dimensions=4, seed=3)


def test_residual_row_clamps_like_the_scalar_residual():
    """Positive, exactly zero and negative ``d² − Σ(xᵢ − xⱼ)²``: the clamp gives ``+0.0``."""
    from_first = [0.0, 1.0, 2.0, 0.5, 3.0, 5.0]
    coordinates = np.array([[0.0], [1.0], [3.0], [2.0], [3.0], [3.0]])
    objects = list(range(len(from_first)))
    embedder = ScalarFastMap(lambda a, b: from_first[b], dimensions=2)
    row = embedder._residual_row(0, embedder._base_rows(objects), coordinates, 1)
    assert row.tolist() == [
        embedder._residual_distance(0, other, objects, coordinates, 1) for other in objects
    ] == [0.0, 0.0, 0.0, 0.0, 0.0, 4.0]
    assert not np.signbit(row).any()


def test_all_zero_distance_collapses_to_one_flat_dimension():
    space = assert_same_fit(lambda a, b: 0.0, ["a", "b", "c", "d"], dimensions=3, seed=0)
    assert space.dimensions == 1 and space.pivots == []
    assert space.coordinates.tobytes() == np.zeros((4, 1)).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_two_objects(seed):
    space = assert_same_fit(euclidean, [(0.0, 0.0), (3.0, 4.0)], dimensions=3, seed=seed)
    assert space.pivots[0].distance == 5.0


def test_negative_distance_raises_with_the_first_offending_value():
    def negative_off_diagonal(a, b):
        return 0.0 if a == b else -float(abs(a - b))

    for cls in (FastMap, ScalarFastMap):
        with pytest.raises(EmbeddingError, match="negative value: -"):
            cls(negative_off_diagonal, dimensions=2, seed=0).fit([1, 2, 4])
    fast = FastMap(negative_off_diagonal, dimensions=2, seed=1)
    reference = ScalarFastMap(negative_off_diagonal, dimensions=2, seed=1)
    messages = []
    for embedder in (fast, reference):
        with pytest.raises(EmbeddingError) as raised:
            embedder.fit([1, 2, 4])
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
