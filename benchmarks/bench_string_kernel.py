"""String kernel — bit-parallel Levenshtein vs the dynamic-programming table.

Eq. (1) compares two literals, and every concept pair that no single
vocabulary covers, with the normalised Levenshtein distance; a projected
triple makes 16 such term comparisons.  This module collects the distinct
string pairs that reach the string distance while the benchmark suite's
requirements corpus (seed 11, 240 triples) is built and 200 query plus 200
insert triples are projected into it, then times
:func:`repro.semantics.levenshtein` against ``_reference_levenshtein`` — the
O(m·n) table kept as the oracle in ``tests/semantics/test_string_distance.py``
— over all of them, best of three rounds.

It fails if any pair's distance differs from the table's, or if the kernel is
not at least ``MIN_SPEEDUP`` times faster per pair.  Not one of the paper's
experiments; it writes no report::

    PYTHONPATH=src python -m pytest benchmarks/bench_string_kernel.py -q -s \\
        --import-mode=importlib
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Callable, List, Tuple

from repro.requirements import build_requirement_vocabularies
from repro.semantics import TermDistance, TripleDistance, levenshtein, normalised_levenshtein

_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "benchmarks"), str(_ROOT / "tests" / "semantics")]
from suite import corpora  # noqa: E402
from test_string_distance import _reference_levenshtein  # noqa: E402

#: The kernel must beat the table by at least this factor on the suite's pairs.
MIN_SPEEDUP = 2.0
SEED = 11
PROJECTED = 200
ROUNDS = 3


def suite_string_pairs(seed: int = SEED) -> List[Tuple[str, str]]:
    """The distinct ``(a, b)`` the string distance sees in one build plus projections."""
    inputs = corpora.requirements_inputs(seed)
    pairs = set()

    def recording(a: str, b: str) -> float:
        pairs.add((a, b))
        return normalised_levenshtein(a, b)

    vocabularies = build_requirement_vocabularies(list(inputs.actors), inputs.parameters)
    weights = corpora.requirements_distance(inputs).weights
    distance = TripleDistance(TermDistance(vocabularies, string_distance=recording), weights)
    index = corpora.build_requirements_index(corpora.requirements_index(inputs, distance))
    for triple in inputs.query_triples[:PROJECTED] + inputs.insert_triples[:PROJECTED]:
        index.embed_query(triple)
    return sorted(pairs)


def _per_pair_seconds(function: Callable[[str, str], int],
                      pairs: List[Tuple[str, str]]) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for a, b in pairs:
            function(a, b)
        best = min(best, (time.perf_counter() - started) / len(pairs))
    return best


def test_kernel_equals_and_beats_the_table_on_suite_pairs():
    pairs = suite_string_pairs()
    differing = [(a, b) for a, b in pairs if levenshtein(a, b) != _reference_levenshtein(a, b)]
    assert not differing, f"{len(differing)} pairs differ, first {differing[0]}"

    table = _per_pair_seconds(_reference_levenshtein, pairs)
    kernel = _per_pair_seconds(levenshtein, pairs)
    mean_length = sum(len(a) + len(b) for a, b in pairs) / (2 * len(pairs))
    print(f"\n{len(pairs)} distinct pairs, mean length {mean_length:.1f}: "
          f"table {table * 1e6:.1f} us, kernel {kernel * 1e6:.1f} us, "
          f"{table / kernel:.1f}x")
    assert table / kernel >= MIN_SPEEDUP, (
        f"kernel {kernel * 1e6:.1f} us vs table {table * 1e6:.1f} us per pair: "
        f"{table / kernel:.2f}x < {MIN_SPEEDUP}x")
