"""String distances for literal/literal comparisons.

The paper: "the two triples' elements are both literals/constants of the
same type (we can apply any distance function between strings, i.e.
Levenshtein)".  This module implements the classical edit distances plus
normalised variants returning values in ``[0, 1]`` as required by the
weighted triple distance.

:func:`levenshtein` is on the hot path of Eq. (1): it compares literals and,
through :class:`~repro.semantics.triple_distance.TermDistance`, every concept
pair that no single vocabulary covers, in each of the 16 triple distances a
projected triple costs.  It computes the exact integer edit distance with the
bit-parallel recurrence of Myers (JACM 1999) in Hyyrö's (2001) formulation
for the whole-string distance: one column of the dynamic-programming table
per character of the longer string, held as vertical +1/-1 delta bit-vectors
over the shorter one, in Python ints of any width.  The result is the same
integer as the O(m·n) table, which ``tests/semantics/test_string_distance.py``
keeps as the oracle.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "levenshtein",
    "normalised_levenshtein",
    "damerau_levenshtein",
    "jaro",
    "jaro_winkler",
    "jaro_winkler_distance",
    "hamming",
    "exact_match_distance",
    "StringDistance",
]

#: Type alias: a normalised string distance maps two strings to ``[0, 1]``.
StringDistance = Callable[[str, str], float]


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein edit distance (insertions, deletions, substitutions).

    Bit-parallel (Myers/Hyyrö): bit ``i`` of ``pv``/``mv`` says that row ``i``
    of the current column is one more/one less than the row above it, and
    ``ph``/``mh`` carry the same for the step from the previous column.  The
    score follows the last row, bit ``m - 1``.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if not m:
        return len(b)
    # peq[c]: the rows of the pattern ``a`` that hold character c.
    peq: dict[str, int] = {}
    bit = 1
    for char in a:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1
    pv, mv, score = mask, 0, m
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 of every column grows by one: shift a +1 in at the bottom.
        ph = (ph << 1) | 1
        mh <<= 1
        # No bit at or above m ever reaches a lower one (carries and shifts
        # go up), so masking what the next column reads keeps it exact.
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return score


def normalised_levenshtein(a: str, b: str) -> float:
    """Levenshtein distance normalised to ``[0, 1]`` by the longer string length."""
    if a == b:
        return 0.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def damerau_levenshtein(a: str, b: str) -> int:
    """Damerau–Levenshtein distance (edit distance with adjacent transpositions)."""
    len_a, len_b = len(a), len(b)
    if a == b:
        return 0
    if not a:
        return len_b
    if not b:
        return len_a
    infinity = len_a + len_b
    # distance matrix with a sentinel row/column for transposition handling
    distance = [[0] * (len_b + 2) for _ in range(len_a + 2)]
    distance[0][0] = infinity
    for i in range(len_a + 1):
        distance[i + 1][0] = infinity
        distance[i + 1][1] = i
    for j in range(len_b + 1):
        distance[0][j + 1] = infinity
        distance[1][j + 1] = j
    last_seen: dict[str, int] = {}
    for i in range(1, len_a + 1):
        last_match_column = 0
        for j in range(1, len_b + 1):
            last_match_row = last_seen.get(b[j - 1], 0)
            cost = 0 if a[i - 1] == b[j - 1] else 1
            if cost == 0:
                last_match_column = j
            distance[i + 1][j + 1] = min(
                distance[i][j] + cost,                      # substitution
                distance[i + 1][j] + 1,                     # insertion
                distance[i][j + 1] + 1,                     # deletion
                distance[last_match_row][last_match_column]
                + (i - last_match_row - 1) + 1 + (j - last_match_column - 1),
            )
        last_seen[a[i - 1]] = i
    return distance[len_a + 1][len_b + 1]


def jaro(a: str, b: str) -> float:
    """Jaro similarity in ``[0, 1]`` (1 means identical)."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    match_window = max(len_a, len_b) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len_a
    b_matched = [False] * len_b
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_b)
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if not a_matched[i]:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, *, prefix_scale: float = 0.1) -> float:
    """Jaro–Winkler similarity, boosting strings with a common prefix."""
    base = jaro(a, b)
    prefix_length = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix_length == 4:
            break
        prefix_length += 1
    return base + prefix_length * prefix_scale * (1.0 - base)


def jaro_winkler_distance(a: str, b: str) -> float:
    """``1 - jaro_winkler``, a normalised distance in ``[0, 1]``."""
    return 1.0 - jaro_winkler(a, b)


def hamming(a: str, b: str) -> int:
    """Hamming distance for equal-length strings.

    Raises
    ------
    ValueError
        If the strings have different lengths.
    """
    if len(a) != len(b):
        raise ValueError("hamming distance requires strings of equal length")
    return sum(1 for char_a, char_b in zip(a, b) if char_a != char_b)


def exact_match_distance(a: str, b: str) -> float:
    """0 when the strings are identical, 1 otherwise (a trivial baseline distance)."""
    return 0.0 if a == b else 1.0
