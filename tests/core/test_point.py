"""Tests for labeled points and Euclidean distances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import LabeledPoint, euclidean_distance, squared_euclidean_distance
from repro.errors import IndexError_

coords = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                  min_size=1, max_size=5)


class TestLabeledPoint:
    def test_of_accepts_any_iterable(self):
        point = LabeledPoint.of(np.array([1.0, 2.0]), label="x")
        assert point.coordinates == (1.0, 2.0)
        assert point.label == "x"

    def test_coordinates_are_floats(self):
        assert LabeledPoint.of([1, 2]).coordinates == (1.0, 2.0)

    def test_empty_coordinates_rejected(self):
        with pytest.raises(IndexError_):
            LabeledPoint(())

    def test_dimension_and_indexing(self):
        point = LabeledPoint.of([3.0, 4.0, 5.0])
        assert point.dimensions == 3
        assert point[1] == 4.0

    def test_as_array_is_a_copy(self):
        point = LabeledPoint.of([1.0, 2.0])
        array = point.as_array()
        array[0] = 99.0
        assert point[0] == 1.0

    def test_hashable_and_value_equality(self):
        assert LabeledPoint.of([1, 2], "a") == LabeledPoint.of([1.0, 2.0], "a")
        assert len({LabeledPoint.of([1, 2], "a"), LabeledPoint.of([1, 2], "a")}) == 1

    def test_points_with_different_labels_are_different(self):
        assert LabeledPoint.of([1, 2], "a") != LabeledPoint.of([1, 2], "b")


class TestDistances:
    def test_known_distance(self):
        assert euclidean_distance(LabeledPoint.of([0, 0]), LabeledPoint.of([3, 4])) == 5.0
        assert squared_euclidean_distance([0, 0], [3, 4]) == 25.0

    def test_accepts_raw_sequences(self):
        assert euclidean_distance([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(IndexError_):
            euclidean_distance([1.0], [1.0, 2.0])

    @given(coords, coords)
    def test_symmetry_and_nonnegativity(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[:len(a)]
        assert euclidean_distance(a, b) >= 0.0
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))

    @given(coords, coords)
    def test_matches_the_sum_of_squares_definition(self, a, b):
        """The ``math.dist`` fast path against the per-pair formula it replaced."""
        b = (b * len(a))[:len(a)]
        squared = sum((x - y) * (x - y) for x, y in zip(a, b))
        assert euclidean_distance(a, b) == pytest.approx(math.sqrt(squared))
        assert squared_euclidean_distance(a, b) == pytest.approx(squared)

    @given(coords)
    def test_identity(self, a):
        assert euclidean_distance(a, a) == 0.0

    def test_distance_to_method(self):
        assert LabeledPoint.of([0, 0]).distance_to(LabeledPoint.of([0, 2])) == 2.0
