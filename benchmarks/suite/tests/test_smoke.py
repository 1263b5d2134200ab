"""Smoke test: ``core_100k`` shrunk to 2 000 points and a 1 s window, in-process.

Keeps the suite from bit-rotting under tier-1: every metric BENCHMARK.json
declares must come out, with its unit, and no operation may fail.
"""

import json

import pytest

from suite import cli, workloads
from suite.workloads import SPEC, Scale, Settings

SMALL = Scale(synthetic_points=2000, synthetic_queries=600, warmup_calls=50,
              trace_requests_inprocess=300)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_core_100k_reports_every_declared_metric(trace, section, capsys):
    record = cli.run_one("core_100k", Settings(seed=11, seconds=1.0, trace=trace, scale=SMALL))
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {name: metric["unit"] for name, metric in record["metrics"].items()} == declared
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] > 100
    assert record["counts"]["oracle"] == {"checked": 100, "mismatched": 0}
    printed = capsys.readouterr().out
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in printed.splitlines()), name
    if trace:
        assert record["metrics"]["core.search.self_ms"]["value"] > 0
        assert record["metrics"]["core.distance_computations_per_query"]["value"] > 0
        assert record["metrics"]["coordinator.fan_out_per_knn"]["value"] == 0
    else:
        assert all(metric["value"] > 0 for metric in record["metrics"].values())
        assert record["conditions"]["error_rate"] == 0
    # the contract line is one JSON object with exactly these keys
    line = json.loads(cli._contract_line(record))  # noqa: SLF001
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_benchmark_json_matches_the_suite():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert "setup_s" in workloads.END_TO_END
    names = workloads.END_TO_END + workloads.PER_LAYER
    assert len(names) == len(set(names))
