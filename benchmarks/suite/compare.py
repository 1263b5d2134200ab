#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/suite/compare.py A.json B.json [--layers]

One row per (workload, end-to-end metric): the median and quartiles of each
side over its repeated runs, the ratio with its base, and a verdict —

``within-bound``  B's median is no worse than A's by more than the metric's bound;
``regressed``     it is worse by more than the bound;
``unresolved``    either side's own run-to-run quartile spread exceeds the
                  bound, so the runs cannot tell.

Exit status is 1 only when a row regressed or B failed a larger share of its
operations than A.  ``--layers`` also lists the per-layer metrics of the
traced runs (informational: they carry no bound).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):  # run as a script: make ``suite`` importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from suite import stats  # noqa: E402

__all__ = ["compare", "main"]

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _runs(path: pathlib.Path, trace: bool) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if bool(run["trace"]) == trace:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _values(runs: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def _describe(values: Sequence[float]) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.6g} [{q1:.6g}..{q3:.6g}] n={len(values)}"


def _verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    if stats.spread(a) > bound or stats.spread(b) > bound:
        return "unresolved"
    base, changed = stats.quartiles(a)[1], stats.quartiles(b)[1]
    worse_by = (changed - base) if better == "lower" else (base - changed)
    return "regressed" if worse_by > bound * abs(base) else "within-bound"


def compare(a_path: pathlib.Path, b_path: pathlib.Path, *, layers: bool = False) -> int:
    failures = 0
    a_runs, b_runs = _runs(a_path, False), _runs(b_path, False)
    print(f"A = {a_path}\nB = {b_path}")
    print(f"{'workload':<13} {'metric':<13} {'A median [quartiles]':<36} "
          f"{'B median [quartiles]':<36} {'B/A':>7} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        for metric in SPEC["end_to_end"]:
            a = _values(a_runs[workload], metric["name"])
            b = _values(b_runs[workload], metric["name"])
            if not a or not b:
                continue
            verdict = _verdict(a, b, metric["better"], metric["bound"])
            failures += verdict == "regressed"
            base = stats.quartiles(a)[1]
            ratio = stats.quartiles(b)[1] / base if base else float("nan")
            print(f"{workload:<13} {metric['name']:<13} {_describe(a):<36} "
                  f"{_describe(b):<36} {ratio:>7.3f} {metric['bound']:>6.2f}  {verdict}")
        # error rate: failed / attempted, every ratio with its base
        rates = []
        for side in (a_runs[workload], b_runs[workload]):
            failed = sum(run["failed"] for run in side)
            attempted = sum(run["attempted"] for run in side)
            incorrect = sum(not run["correct"] for run in side)
            rates.append((failed, attempted, incorrect, len(side)))
        (fa, na, ia, ra), (fb, nb, ib, rb) = rates
        higher = fb * na > fa * nb or ib * ra > ia * rb
        failures += higher
        print(f"{workload:<13} {'error_rate':<13} {f'{fa}/{na} ops, {ia}/{ra} runs incorrect':<36} "
              f"{f'{fb}/{nb} ops, {ib}/{rb} runs incorrect':<36} {'':>7} {'0':>6}  "
              f"{'higher' if higher else 'not-higher'}")
    if layers:
        a_traced, b_traced = _runs(a_path, True), _runs(b_path, True)
        print("\nper-layer metrics (traced runs; informational)")
        for workload in (entry["name"] for entry in SPEC["workloads"]):
            if workload not in a_traced or workload not in b_traced:
                continue
            for metric in SPEC["per_layer"]:
                a = _values(a_traced[workload], metric["name"])
                b = _values(b_traced[workload], metric["name"])
                if not a or not b or not (any(a) or any(b)):
                    continue
                note = "identical" if sorted(a) == sorted(b) else ""
                print(f"{workload:<13} {metric['name']:<42} {_describe(a):<36} "
                      f"{_describe(b):<36} {note}")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="baseline result file")
    parser.add_argument("b", type=pathlib.Path, help="result file to judge")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics of the traced runs")
    args = parser.parse_args(argv)
    return compare(args.a, args.b, layers=args.layers)


if __name__ == "__main__":
    sys.exit(main())
