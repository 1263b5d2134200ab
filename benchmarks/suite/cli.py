"""Command line of the suite: run workloads, print every metric, write a result file."""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy

from . import loadgen, workloads
from .workloads import SPEC, WHY, Outcome, Settings

__all__ = ["main", "environment_stamp", "run_one"]

_UNITS = {entry["name"]: entry["unit"]
          for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
_REPOSITORY = pathlib.Path(__file__).resolve().parents[2]


def _git(*arguments: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *arguments], cwd=_REPOSITORY, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_stamp() -> Dict[str, Any]:
    """Where and on what a result was measured; a number never travels without it."""
    status = _git("status", "--porcelain")
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "clients": workloads.CLIENTS,
        "setup_repeats": workloads.SETUP_REPEATS,
    }


def run_one(name: str, settings: Settings) -> Dict[str, Any]:
    """Run one (workload, mode); print its metrics; return its result-file record."""
    started = time.perf_counter()
    outcome: Outcome = workloads.run(name, settings)
    elapsed = time.perf_counter() - started
    mode = "traced" if settings.trace else "timed"
    print(f"== {name} [{mode}] seed={settings.seed} window={settings.seconds:g}s "
          f"(ran {elapsed:.1f}s)")
    print(f"   why: {WHY[name]}")
    for metric, value in outcome.metrics.items():
        print(f"   {metric:<44} {value:>14.6g} {_UNITS[metric]}")
    for op, counts in outcome.counts.items():
        print(f"   counts.{op}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for check, ok, detail in outcome.checks:
        print(f"   check {'ok  ' if ok else 'FAIL'} {check}: {detail}")
    sys.stdout.flush()
    return {
        "workload": name, "why": WHY[name], "trace": settings.trace, "seed": settings.seed,
        "window_seconds": settings.seconds,
        "elapsed_seconds": elapsed,
        "correct": outcome.correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": _UNITS[metric]}
                    for metric, value in outcome.metrics.items()},
        "counts": outcome.counts,
        "checks": [{"name": check, "ok": ok, "detail": detail}
                   for check, ok, detail in outcome.checks],
        "conditions": outcome.conditions,
    }


def _contract_line(record: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": max(record["attempted"], 1),
        "failed": record["failed"], "metrics": record["metrics"],
    })


def _terminate(signum: int, frame: Any) -> None:
    # Turn SIGTERM into an exception so ``with ProcessGroup()`` tears down.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py",
        description="Run the benchmark suite: named workloads, end-to-end metrics "
                    "(--trace 0) and per-layer metrics from a separate traced run "
                    "(--trace 1).  The last line of output is one JSON object for the "
                    "last run made.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measured window length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = timed run, 1 = traced run (default: both, timed first)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat each run with seeds seed, seed+1, ... (for compare.py)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write every run, with the environment stamp, to this JSON file")
    parser.add_argument("--spans", type=pathlib.Path, default=None,
                        help="traced runs: write the recorded spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be positive and --repeat at least 1")
    signal.signal(signal.SIGTERM, _terminate)
    server_cpus, own_cpus = loadgen.cpu_split()
    if server_cpus != own_cpus:
        os.sched_setaffinity(0, own_cpus)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    records: List[Dict[str, Any]] = []
    for name in names:
        for repeat in range(args.repeat):
            for trace in modes:
                records.append(run_one(name, Settings(
                    seed=args.seed + repeat, seconds=args.seconds, trace=trace,
                    spans_path=args.spans if trace else None,
                    server_cpus=tuple(server_cpus) if server_cpus != own_cpus else None)))
    if args.out is not None:
        args.out.write_text(json.dumps({
            "suite": "benchmarks/suite", "claim": None,
            "environment": environment_stamp(), "runs": records,
        }, indent=1) + "\n")
    # Exit 0 whenever a result was printed: correctness travels in the JSON
    # line (``correct``/``failed``), which is what the driver reads.
    print(_contract_line(records[-1]))
    return 0
