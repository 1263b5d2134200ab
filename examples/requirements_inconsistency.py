"""Case study: finding inconsistencies in software requirements (Section IV-B).

This example reproduces the paper's end-to-end workflow on a synthetic
on-board-software corpus:

1. generate a requirements corpus (documents → requirements → controlled
   English sentences);
2. extract triples from the sentences with the NLP-lite extractor;
3. index the triples with SemTree;
4. probe the corpus with antinomic *target triples* and report the detected
   inconsistencies, together with precision/recall against the ground-truth
   oracle.

Run with::

    python examples/requirements_inconsistency.py
"""

from __future__ import annotations

from repro.core import SemTreeConfig, SemTreeIndex
from repro.evaluation import average_precision_recall, evaluate_retrieval
from repro.nlp import TripleExtractor
from repro.requirements import (
    GeneratorConfig,
    GroundTruthOracle,
    InconsistencyDetector,
    RequirementsGenerator,
    build_requirement_distance,
    build_requirement_vocabularies,
)


def main() -> None:
    # 1. Generate the synthetic corpus (a scaled-down stand-in for the
    #    proprietary CIRA corpus; see docs/reproduction.md, substitution table).
    generator_config = GeneratorConfig(
        documents=12, requirements_per_document=8, sentences_per_requirement=3,
        actors=25, inconsistency_rate=0.3, seed=42,
    )
    corpus = RequirementsGenerator(generator_config).generate()
    print(f"Generated corpus: {corpus}")

    # 2. Extract triples from the natural-language sentences (round-trip
    #    through the NLP-lite pipeline instead of trusting the generator).
    extractor = TripleExtractor()
    extracted = []
    for document in corpus.documents:
        for requirement in document:
            extracted.extend(extractor.extract_from_text(requirement.text))
    print(f"Extracted {len(extracted)} triples from the controlled-English sentences")

    # 3. Build the semantic index over the extracted triples.
    vocabularies = build_requirement_vocabularies(corpus.actor_names, corpus.parameter_values)
    distance = build_requirement_distance(vocabularies)
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=4, bucket_size=8, max_partitions=5, partition_capacity=64,
    ))
    index.add_triples(extracted)
    index.build()
    print(f"Index: {index.statistics()}")

    # 4. Probe for inconsistencies with the detector.
    function_vocabulary = vocabularies["Fun"]
    detector = InconsistencyDetector(index, function_vocabulary, k=5)
    pairs = detector.conflicting_pairs(corpus.all_triples()[:200])
    print(f"\nDetected {len(pairs)} conflicting requirement pairs; first five:")
    for source, conflict in pairs[:5]:
        print(f"  {source}   <->   {conflict}")

    # 5. Effectiveness against the ground-truth oracle (the Fig. 8 protocol).
    oracle = GroundTruthOracle(corpus.all_triples(), function_vocabulary)
    cases = oracle.build_cases(50, seed=7)
    print(f"\nEffectiveness over {len(cases)} target-triple queries:")
    print(f"{'K':>4}  {'precision':>9}  {'recall':>7}  {'F1':>6}")
    for k in (1, 2, 3, 5, 8, 12):
        per_query = []
        for case in cases:
            retrieved = [match.triple for match in index.k_nearest(case.target_triple, k)]
            per_query.append(evaluate_retrieval(retrieved, case.expected))
        averaged = average_precision_recall(per_query)
        print(f"{k:>4}  {averaged.precision:>9.3f}  {averaged.recall:>7.3f}  {averaged.f1:>6.3f}")


if __name__ == "__main__":
    main()
