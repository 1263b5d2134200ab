"""``benchmarks/`` holds the paper's experiments with their committed output.

Nothing here runs a benchmark: the report modules are read as text.  Every
experiment a ``bench_*.py`` module reports must have its committed
``BENCH_<id>.json`` and ``benchmarks/results/<id>.txt``, every such
committed file must still have a module producing it, and the quick-mode
switches of the deleted pre-suite sweeps must not come back.
"""

from __future__ import annotations

import json
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARKS = REPO_ROOT / "benchmarks"
RESULTS = BENCHMARKS / "results"

EXPERIMENT_ID = re.compile(r'experiment_id="([a-z0-9_]+)"')


def reported_experiments() -> dict[str, str]:
    """``experiment_id`` → the ``bench_*.py`` module that reports it."""
    producers = {}
    for module in sorted(BENCHMARKS.glob("bench_*.py")):
        for experiment_id in EXPERIMENT_ID.findall(module.read_text()):
            producers[experiment_id] = module.name
    return producers


def test_every_report_has_its_committed_output():
    producers = reported_experiments()
    assert producers, "no bench_*.py module declares an experiment_id"
    missing = [
        str(path.relative_to(REPO_ROOT))
        for experiment_id in producers
        for path in (REPO_ROOT / f"BENCH_{experiment_id}.json",
                     RESULTS / f"{experiment_id}.txt")
        if not path.exists()
    ]
    assert missing == [], f"run the report case and commit: {missing}"


def test_every_committed_output_has_a_producing_module():
    producers = reported_experiments()
    committed = (
        [(path.stem.removeprefix("BENCH_"), path) for path in REPO_ROOT.glob("BENCH_*.json")]
        + [(path.stem, path) for path in RESULTS.glob("*.txt")]
        + [(experiment_id, RESULTS / "reproduction.json")
           for experiment_id in json.loads((RESULTS / "reproduction.json").read_text())]
    )
    orphans = [f"{path.relative_to(REPO_ROOT)} ({experiment_id})"
               for experiment_id, path in committed if experiment_id not in producers]
    assert orphans == [], f"no bench_*.py module reports: {orphans}"


def test_no_bench_quick_switch_is_read():
    switch = re.compile(r"\w+_BENCH_QUICK")
    scanned = [path for root in (BENCHMARKS, REPO_ROOT / ".github")
               for path in root.rglob("*") if path.suffix in (".py", ".yml", ".md")]
    assert scanned
    found = [f"{path.relative_to(REPO_ROOT)}: {match}"
             for path in scanned for match in switch.findall(path.read_text())]
    assert found == []
