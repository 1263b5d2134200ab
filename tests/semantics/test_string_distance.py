"""Tests (including property-based tests) for the string distances.

:func:`_reference_levenshtein` is the textbook O(m·n) table the library
shipped before :func:`levenshtein` became bit-parallel; it is kept here as
the oracle the kernel must equal on every input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics import (
    damerau_levenshtein,
    exact_match_distance,
    hamming,
    jaro,
    jaro_winkler,
    jaro_winkler_distance,
    levenshtein,
    normalised_levenshtein,
)

short_text = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=12)
#: Lengths 0-150 cross the 30- and 64-bit word boundaries of the bit-vectors.
any_text = st.text(max_size=150)
#: Three letters: matches are dense, so long runs of +1/-1 deltas carry far.
dense_text = st.text(alphabet="abc", max_size=150)


def _reference_levenshtein(a: str, b: str) -> int:
    """Levenshtein distance by the full dynamic-programming table, one row at a time."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (0 if char_a == char_b else 1)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


class TestLevenshtein:
    @pytest.mark.parametrize("a, b, expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("abc", "", 3),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("start-up", "startup", 1),
    ])
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected == _reference_levenshtein(a, b)

    @pytest.mark.parametrize("length", [1, 29, 30, 31, 63, 64, 65, 129, 300])
    def test_equals_the_table_across_word_boundaries(self, length):
        pattern = ("abcab" * 400)[:length]
        text = ("bacba" * 400)[:length + 3]
        assert levenshtein(pattern, text) == _reference_levenshtein(pattern, text)
        assert levenshtein(pattern, "") == length
        assert levenshtein("x" * length, "y" * length) == length

    @given(st.one_of(st.tuples(any_text, any_text), st.tuples(dense_text, dense_text)))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_table(self, pair):
        a, b = pair
        assert levenshtein(a, b) == _reference_levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(short_text, short_text, short_text)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    def test_bounded_by_longest_string(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


class TestNormalisedLevenshtein:
    @given(short_text, short_text)
    def test_in_unit_interval(self, a, b):
        assert 0.0 <= normalised_levenshtein(a, b) <= 1.0

    def test_identical_strings_zero(self):
        assert normalised_levenshtein("abc", "abc") == 0.0

    def test_completely_different_strings_one(self):
        assert normalised_levenshtein("aaa", "bbb") == 1.0

    def test_both_empty(self):
        assert normalised_levenshtein("", "") == 0.0


class TestDamerauLevenshtein:
    def test_transposition_costs_one(self):
        assert damerau_levenshtein("ab", "ba") == 1
        assert levenshtein("ab", "ba") == 2

    @pytest.mark.parametrize("a, b, expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("ca", "abc", 2),
        ("abcdef", "abcfed", 2),
    ])
    def test_known_values(self, a, b, expected):
        assert damerau_levenshtein(a, b) == expected

    @given(short_text, short_text)
    def test_never_exceeds_levenshtein(self, a, b):
        assert damerau_levenshtein(a, b) <= levenshtein(a, b)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_no_common_characters(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty_string(self):
        assert jaro("", "abc") == 0.0

    @given(short_text, short_text)
    def test_in_unit_interval(self, a, b):
        assert 0.0 <= jaro(a, b) <= 1.0


class TestJaroWinkler:
    def test_prefix_boost(self):
        assert jaro_winkler("prefixed", "prefixes") >= jaro("prefixed", "prefixes")

    def test_distance_is_one_minus_similarity(self):
        assert jaro_winkler_distance("abc", "abd") == pytest.approx(
            1.0 - jaro_winkler("abc", "abd")
        )

    @given(short_text, short_text)
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0 + 1e-9


class TestHammingAndExactMatch:
    def test_hamming_counts_mismatches(self):
        assert hamming("karolin", "kathrin") == 3

    def test_hamming_requires_equal_length(self):
        with pytest.raises(ValueError):
            hamming("abc", "ab")

    def test_exact_match_distance(self):
        assert exact_match_distance("a", "a") == 0.0
        assert exact_match_distance("a", "b") == 1.0
