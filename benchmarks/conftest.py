"""Shared helpers for the benchmark harness.

The ``bench_fig*``, ``bench_table1_ksearch`` and ``bench_ablation_*``
modules each reproduce one figure, table or design decision of the paper's
evaluation (docs/reproduction.md holds the experiment index);
``bench_leaf_scan_kernel`` is the one module that is not from the paper: it
gates the NumPy leaf kernel against the scalar oracle.  End-to-end serving
numbers live in ``suite/``, not here.  Each module contains

* pytest-benchmark cases that time a representative configuration of the
  experiment (so ``pytest benchmarks/ --benchmark-only`` produces a timing
  table), and
* one or two ``test_report_*`` cases that run the full parameter sweep,
  print the same series the paper plots and persist them through
  :func:`write_report`.

Absolute numbers are not expected to match the paper (different hardware,
simulated cluster); the *shape* assertions of each report test encode what
must hold, and the wall-clock-free series are pinned exactly in
``benchmarks/results/reproduction.json``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.evaluation import Experiment, format_experiment

#: Where the report tests drop their plain-text tables.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Where the machine-readable ``BENCH_<experiment>.json`` files land.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The exact-repeat series of every committed report, keyed by experiment id.
#: CI reruns the reports and fails on any ``git diff`` of this file.
REPRODUCTION_PATH = RESULTS_DIR / "reproduction.json"

#: Metric-name fragments that mark a wall-clock measurement (never pinned).
_WALL_CLOCK_MARKERS = ("wall_ms", "_us", "_speedup")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    return RESULTS_DIR


def _pin(experiment: Experiment) -> None:
    """Record the experiment's wall-clock-free series in ``reproduction.json``.

    Values are rounded to nine decimals: far below anything a figure could
    move by, above the last-digit differences between NumPy builds' sums.
    """
    series = {}
    for name, payload in experiment.to_payload()["series"].items():
        metrics = {metric: [None if value is None else round(value, 9) for value in values]
                   for metric, values in payload["metrics"].items()
                   if not any(marker in metric for marker in _WALL_CLOCK_MARKERS)}
        if metrics:
            series[name] = {"x": payload["x"], "metrics": metrics}
    if not series:
        return
    pinned = json.loads(REPRODUCTION_PATH.read_text()) if REPRODUCTION_PATH.exists() else {}
    pinned[experiment.experiment_id] = series
    REPRODUCTION_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def write_report(results_dir: pathlib.Path, experiment: Experiment,
                 metrics: list[str]) -> str:
    """Format an experiment, print it, persist the text table and the JSON twin.

    With the ``results_dir`` fixture the output is the committed set: the
    aligned text table in ``benchmarks/results/<experiment>.txt``, the full
    metric → series mapping (:meth:`Experiment.to_payload`) in
    ``BENCH_<experiment>.json`` at the repository root, and the series that
    repeat exactly in ``benchmarks/results/reproduction.json``.  A shrunk
    sweep passes pytest's ``tmp_path`` instead; both files then land there
    and nothing committed is touched.
    """
    text = format_experiment(experiment, metrics)
    committed = results_dir == RESULTS_DIR
    json_dir = REPO_ROOT if committed else results_dir
    (results_dir / f"{experiment.experiment_id}.txt").write_text(text + "\n")
    (json_dir / f"BENCH_{experiment.experiment_id}.json").write_text(
        json.dumps(experiment.to_payload(), indent=2) + "\n")
    if committed:
        _pin(experiment)
    print("\n" + text)
    return text
