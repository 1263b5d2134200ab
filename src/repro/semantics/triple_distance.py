"""The weighted semantic distance between triples — Eq. (1) of the paper.

.. math::

    d(t_i, t_j) = \\alpha \\cdot d_s(t_i^s, t_j^s)
                + \\beta  \\cdot d_p(t_i^p, t_j^p)
                + \\gamma \\cdot d_o(t_i^o, t_j^o),
    \\qquad \\alpha + \\beta + \\gamma = 1

where the sub-distances compare the projections of the two triples on the
subject, predicate and object position:

* two literals/constants of the same type → a string distance (Levenshtein
  in the paper, normalised here so the result stays in ``[0, 1]``);
* two concepts → a taxonomy-based dissimilarity (``1 - Wu&Palmer`` by
  default), looked up in the vocabulary that owns the concept's prefix;
* a literal against a concept (not discussed in the paper) → the distance
  falls back to a normalised string distance over their textual forms,
  which keeps the function total and symmetric.

The resulting :class:`TripleDistance` is a proper callable ``(Triple,
Triple) → float`` and is what FastMap's out-of-sample projection and the
linear-scan baselines consume.  FastMap's *fit* asks for whole rows instead
— the distances from one triple to every fitted triple — and gets them from
:meth:`TripleDistance.rows_to`: the three positions draw from small term
universes, so a row is three table gathers and two adds rather than one
Eq. (1) evaluation per fitted triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import DistanceError
from repro.rdf.terms import Concept, Literal, Term
from repro.rdf.triple import Triple
from repro.semantics.similarity import ConceptSimilarity, WuPalmerSimilarity
from repro.semantics.string_distance import StringDistance, normalised_levenshtein
from repro.semantics.vocabulary import Vocabulary

__all__ = ["DistanceWeights", "TermDistance", "TripleDistance", "TripleDistanceRows"]

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class DistanceWeights:
    """The (α, β, γ) weights of Eq. (1); they must be non-negative and sum to 1."""

    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if value < 0:
                raise DistanceError(f"weight {name} must be non-negative, got {value}")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > 1e-6:
            raise DistanceError(
                f"weights must sum to 1 (alpha+beta+gamma = {total:.6f})"
            )

    @classmethod
    def normalised(cls, alpha: float, beta: float, gamma: float) -> "DistanceWeights":
        """Build weights from arbitrary non-negative values, normalising their sum to 1."""
        total = alpha + beta + gamma
        if total <= 0:
            raise DistanceError("at least one weight must be positive")
        return cls(alpha / total, beta / total, gamma / total)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


class TermDistance:
    """Distance between two terms (one projection of Eq. (1)).

    Dispatches on the term kinds:

    * concept vs concept → vocabulary/taxonomy dissimilarity,
    * literal vs literal → normalised string distance,
    * mixed → normalised string distance over the textual forms.

    Concepts whose prefix has no registered vocabulary (or that are missing
    from their vocabulary) also fall back to the string distance, so the
    distance is total over any pair of terms.
    """

    def __init__(self,
                 vocabularies: Mapping[str, Vocabulary] | None = None,
                 *,
                 concept_similarity_factory: Callable[..., ConceptSimilarity] = WuPalmerSimilarity,
                 string_distance: StringDistance = normalised_levenshtein):
        self._vocabularies: Dict[str, Vocabulary] = dict(vocabularies or {})
        self._string_distance = string_distance
        self._similarity_factory = concept_similarity_factory
        self._similarity_cache: Dict[str, ConceptSimilarity] = {}

    # -- vocabulary wiring ----------------------------------------------------------

    def register_vocabulary(self, prefix: str, vocabulary: Vocabulary) -> None:
        """Attach a vocabulary to a concept prefix (``""`` = default vocabulary)."""
        self._vocabularies[prefix] = vocabulary
        self._similarity_cache.pop(prefix, None)

    def vocabulary_for(self, prefix: str) -> Optional[Vocabulary]:
        """Return the vocabulary registered for a prefix, if any."""
        return self._vocabularies.get(prefix)

    def _similarity_for(self, prefix: str) -> Optional[ConceptSimilarity]:
        vocabulary = self._vocabularies.get(prefix)
        if vocabulary is None:
            return None
        measure = self._similarity_cache.get(prefix)
        if measure is None:
            measure = self._similarity_factory(vocabulary.taxonomy)
            self._similarity_cache[prefix] = measure
        return measure

    # -- the distance proper ----------------------------------------------------------

    def distance(self, term_a: Term, term_b: Term) -> float:
        """Normalised distance in ``[0, 1]`` between two terms."""
        if term_a == term_b:
            return 0.0
        if isinstance(term_a, Concept) and isinstance(term_b, Concept):
            return self._concept_distance(term_a, term_b)
        return self._string_distance(self._text_of(term_a), self._text_of(term_b))

    def _concept_distance(self, concept_a: Concept, concept_b: Concept) -> float:
        if concept_a.prefix == concept_b.prefix:
            measure = self._similarity_for(concept_a.prefix)
            vocabulary = self._vocabularies.get(concept_a.prefix)
            if (
                measure is not None
                and vocabulary is not None
                and concept_a.name in vocabulary.taxonomy
                and concept_b.name in vocabulary.taxonomy
            ):
                return measure.distance(concept_a.name, concept_b.name)
        # Different prefixes, no vocabulary, or unknown concepts: fall back to
        # a string distance on the qualified names.
        return self._string_distance(concept_a.qname, concept_b.qname)

    @staticmethod
    def _text_of(term: Term) -> str:
        if isinstance(term, Literal):
            return term.value
        if isinstance(term, Concept):
            return term.qname
        return str(term)

    def __call__(self, term_a: Term, term_b: Term) -> float:
        return self.distance(term_a, term_b)


class TripleDistance:
    """The weighted triple distance of Eq. (1).

    The callable returns a value in ``[0, 1]`` (each sub-distance is
    normalised, and the weights sum to 1).  Distances are symmetric and
    ``d(t, t) = 0``.
    """

    def __init__(self,
                 term_distance: TermDistance | None = None,
                 weights: DistanceWeights | None = None):
        self.term_distance = term_distance or TermDistance()
        self.weights = weights or DistanceWeights()

    def distance(self, triple_a: Triple, triple_b: Triple) -> float:
        """Compute ``d(triple_a, triple_b)`` per Eq. (1)."""
        if triple_a == triple_b:
            return 0.0
        alpha, beta, gamma = self.weights.as_tuple()
        subject_distance = self.term_distance(triple_a.subject, triple_b.subject)
        predicate_distance = self.term_distance(triple_a.predicate, triple_b.predicate)
        object_distance = self.term_distance(triple_a.object, triple_b.object)
        return (
            alpha * subject_distance
            + beta * predicate_distance
            + gamma * object_distance
        )

    def components(self, triple_a: Triple, triple_b: Triple) -> Dict[str, float]:
        """Return the three unweighted sub-distances, keyed by position name."""
        return {
            "subject": self.term_distance(triple_a.subject, triple_b.subject),
            "predicate": self.term_distance(triple_a.predicate, triple_b.predicate),
            "object": self.term_distance(triple_a.object, triple_b.object),
        }

    def rows_to(self, references: Sequence[Triple]) -> "TripleDistanceRows":
        """Rows of Eq. (1) against ``references``: ``rows(t)[i] == distance(t, references[i])``.

        The rows are assembled from term-distance tables and never call
        :meth:`distance`, so a subclass that wraps :meth:`distance` (to count
        or trace it) sees no calls from a consumer of rows.
        """
        return TripleDistanceRows(self.term_distance, self.weights, references)

    def with_weights(self, weights: DistanceWeights) -> "TripleDistance":
        """Return a new distance sharing the term distance but with other weights."""
        return TripleDistance(self.term_distance, weights)

    def __call__(self, triple_a: Triple, triple_b: Triple) -> float:
        return self.distance(triple_a, triple_b)

    def __repr__(self) -> str:
        alpha, beta, gamma = self.weights.as_tuple()
        return f"TripleDistance(alpha={alpha:.3f}, beta={beta:.3f}, gamma={gamma:.3f})"


class _PositionTable:
    """One position of the reference triples: its distinct terms and their weighted distances.

    ``universe`` holds the distinct terms in first-seen order and
    ``inverse[i]`` is the universe slot of reference ``i``, so a vector over
    the universe gathered through ``inverse`` is a vector over the references.
    """

    def __init__(self, term_distance: TermDistance, weight: float, terms: Sequence[Term]):
        slots: Dict[Term, int] = {}
        self.inverse = np.fromiter((slots.setdefault(term, len(slots)) for term in terms),
                                   dtype=np.intp, count=len(terms))
        self.universe: List[Term] = list(slots)
        self._term_distance = term_distance
        self._weight = weight
        #: ``weight * d(term, universe)`` per requested term: universe-length, not n-length.
        self._weighted: Dict[Term, np.ndarray] = {}

    def row(self, term: Term) -> np.ndarray:
        """``weight * d(term, reference term)`` for every reference, ``term`` first."""
        weighted = self._weighted.get(term)
        if weighted is None:
            weighted = self._weight * np.array(
                [self._term_distance(term, other) for other in self.universe], dtype=float)
            self._weighted[term] = weighted
        return weighted[self.inverse]


class TripleDistanceRows:
    """Eq. (1) from one triple to a fixed sequence of reference triples, as one array.

    Each position interns its distinct reference terms once; the scalar
    :class:`TermDistance` then runs once per (requested term, distinct
    reference term) pair instead of once per (triple, reference) pair, and
    every entry is bit-identical to :meth:`TripleDistance.distance` because
    it is the same products summed in the same order,
    ``(α·d_s + β·d_p) + γ·d_o`` (equal triples get ``0.0`` from three zero
    term distances).  Memory is ``O(U² + n)`` for term universes of size
    ``U`` and ``n`` references.
    """

    def __init__(self, term_distance: TermDistance, weights: DistanceWeights,
                 references: Sequence[Triple]):
        alpha, beta, gamma = weights.as_tuple()
        self._subjects = _PositionTable(
            term_distance, alpha, [triple.subject for triple in references])
        self._predicates = _PositionTable(
            term_distance, beta, [triple.predicate for triple in references])
        self._objects = _PositionTable(
            term_distance, gamma, [triple.object for triple in references])

    def __call__(self, triple: Triple) -> np.ndarray:
        return (self._subjects.row(triple.subject)
                + self._predicates.row(triple.predicate)
                + self._objects.row(triple.object))
