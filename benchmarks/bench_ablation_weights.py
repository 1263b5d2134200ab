"""Ablation — the (α, β, γ) weights of the semantic distance (Eq. 1).

docs/reproduction.md lists the distance weights as a design decision: the case
study uses α = γ = 0.4, β = 0.2 (subject and object dominate; the predicate
carries the antinomy signal).  This ablation sweeps several weight settings
and reports the effectiveness (precision/recall at K = 3) of the
inconsistency-retrieval task under each, demonstrating that

* ignoring the subject or the object hurts precision (unrelated statements
  about other actors/parameters crowd the result set), and
* the default weighting is at least as good as the uniform weighting.
"""

from __future__ import annotations

import pytest

from repro.core import SemTreeConfig, SemTreeIndex
from repro.evaluation import Experiment, average_precision_recall, evaluate_retrieval
from repro.requirements import (
    GeneratorConfig,
    GroundTruthOracle,
    RequirementsGenerator,
    build_requirement_distance,
    build_requirement_vocabularies,
)
from repro.semantics import DistanceWeights

from .conftest import write_report

K = 3
QUERY_CASES = 60

#: (label, weights) — the ablated settings.
WEIGHT_SETTINGS = (
    ("default 0.4/0.2/0.4", DistanceWeights(0.4, 0.2, 0.4)),
    ("uniform 1/3 each", DistanceWeights(1 / 3, 1 / 3, 1 / 3)),
    ("subject only", DistanceWeights(1.0, 0.0, 0.0)),
    ("predicate heavy 0.2/0.6/0.2", DistanceWeights(0.2, 0.6, 0.2)),
)


def _corpus_and_cases():
    config = GeneratorConfig(
        documents=15, requirements_per_document=8, sentences_per_requirement=3,
        actors=30, inconsistency_rate=0.3, seed=21,
    )
    corpus = RequirementsGenerator(config).generate()
    vocabularies = build_requirement_vocabularies(
        corpus.actor_names, corpus.parameter_values
    )
    oracle = GroundTruthOracle(corpus.all_triples(), vocabularies["Fun"])
    cases = oracle.build_cases(QUERY_CASES, seed=9)
    return corpus, vocabularies, cases


def _effectiveness(corpus, vocabularies, cases, weights: DistanceWeights):
    distance = build_requirement_distance(vocabularies, weights=weights)
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=4, bucket_size=16, max_partitions=3, partition_capacity=96,
    ))
    for document in corpus.documents:
        index.add_document(document.to_rdf_document())
    index.build()
    per_query = [
        evaluate_retrieval(
            [match.triple for match in index.k_nearest(case.target_triple, K)],
            case.expected,
        )
        for case in cases
    ]
    return average_precision_recall(per_query)


@pytest.mark.benchmark(group="ablation-weights")
def test_report_ablation_weights(benchmark, results_dir):
    def run_sweep() -> Experiment:
        corpus, vocabularies, cases = _corpus_and_cases()
        experiment = Experiment(
            experiment_id="ablation_distance_weights",
            description=f"Effect of the Eq. (1) weights on effectiveness (K={K})",
            swept_parameter="setting",
        )
        for position, (label, weights) in enumerate(WEIGHT_SETTINGS):
            result = _effectiveness(corpus, vocabularies, cases, weights)
            experiment.record(label, position,
                              precision=result.precision, recall=result.recall, f1=result.f1)
        return experiment

    experiment = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    def f1_of(label: str) -> float:
        return experiment.series[label].values("f1")[0]

    # The full triple signal beats relying on the subject alone.
    assert f1_of("default 0.4/0.2/0.4") > f1_of("subject only")
    # The default weighting is competitive with (not worse than ~5% below) uniform.
    assert f1_of("default 0.4/0.2/0.4") >= f1_of("uniform 1/3 each") - 0.05

    write_report(results_dir, experiment, ["precision", "recall", "f1"])
