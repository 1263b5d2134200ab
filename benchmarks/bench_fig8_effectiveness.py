"""Figure 8 — Effectiveness (average precision and recall vs K).

The paper's protocol (Section IV-B): for 100 requirements, select one triple
each, build the corresponding antinomic *target triple*, run a k-nearest
query with it, and compare the result set against a human-annotated ground
truth, averaging precision and recall over the 100 query cases while varying
K.  Qualitative finding: "the lower is K, the higher is P and the lower is
R; then, when K increases, R grows up and P decreases".

The reproduction uses the synthetic requirements corpus, the ground-truth
oracle (annotators replaced by the formal inconsistency definition with
spelling-variant matching — see docs/reproduction.md) and exactly the same
protocol.
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

from .conftest import write_report

K_VALUES = (1, 2, 3, 5, 8, 12, 20)
QUERY_CASES = 100


def _build_case_study():
    """Generate the corpus, build the index and the 100 query cases."""
    generator_config = GeneratorConfig(
        documents=25, requirements_per_document=8, sentences_per_requirement=3,
        actors=40, inconsistency_rate=0.3, restatement_rate=0.15, seed=42,
    )
    corpus = RequirementsGenerator(generator_config).generate()
    vocabularies = build_requirement_vocabularies(
        corpus.actor_names, corpus.parameter_values
    )
    distance = build_requirement_distance(vocabularies)
    # 8 FastMap dimensions: the effectiveness experiment needs a faithful
    # embedding (see the FastMap-dimensionality ablation) because precision
    # at K = 1 is sensitive to neighbour-order inversions.
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=8, bucket_size=16, max_partitions=5, partition_capacity=128,
    ))
    for document in corpus.documents:
        index.add_document(document.to_rdf_document())
    index.build()
    oracle = GroundTruthOracle(corpus.all_triples(), vocabularies["Fun"])
    cases = oracle.build_cases(QUERY_CASES, seed=7)
    return index, cases


@pytest.fixture(scope="module")
def case_study():
    return _build_case_study()


# -- pytest-benchmark cases ---------------------------------------------------------------

@pytest.mark.benchmark(group="fig8-effectiveness")
def test_query_throughput_k3(benchmark, case_study):
    index, cases = case_study

    def run():
        return sum(len(index.k_nearest(case.target_triple, 3)) for case in cases)

    assert benchmark(run) == 3 * len(cases)


@pytest.mark.benchmark(group="fig8-effectiveness")
def test_index_build_for_case_study(benchmark):
    def run():
        index, cases = _build_case_study()
        return len(index)

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 500


# -- the figure itself ----------------------------------------------------------------------

@pytest.mark.benchmark(group="fig8-effectiveness")
def test_report_fig8(benchmark, case_study, results_dir):
    index, cases = case_study

    def run_sweep() -> Experiment:
        experiment = Experiment(
            experiment_id="fig8_effectiveness",
            description=(
                f"Average precision/recall over {len(cases)} target-triple "
                "k-NN queries vs K (Fig. 8)"
            ),
            swept_parameter="K",
        )
        for k in K_VALUES:
            per_query = []
            for case in cases:
                retrieved = [match.triple for match in index.k_nearest(case.target_triple, k)]
                per_query.append(evaluate_retrieval(retrieved, case.expected))
            averaged = average_precision_recall(per_query)
            experiment.record("SemTree k-NN", k,
                              precision=averaged.precision,
                              recall=averaged.recall,
                              f1=averaged.f1)
        return experiment

    experiment = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    series = experiment.series["SemTree k-NN"]

    # The paper's qualitative finding.  Recall is non-decreasing by
    # construction; average precision is allowed a tiny local wobble
    # (per-query precision |T ∩ T*| / K is not strictly monotone in K).
    assert series.is_non_increasing("precision", tolerance=0.02)
    assert series.is_non_decreasing("recall", tolerance=1e-9)
    assert series.values("precision")[0] > series.values("precision")[-1]
    assert series.values("recall")[-1] > series.values("recall")[0]
    # The curves cross: high precision at low K, high recall at large K.
    assert series.values("precision")[0] >= 0.4
    assert series.values("recall")[-1] >= 0.8

    write_report(results_dir, experiment, ["precision", "recall", "f1"])
