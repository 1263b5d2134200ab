#!/usr/bin/env python3
"""Entry point of the benchmark suite (the ``command`` of ``BENCHMARK.json``).

Run from the repository root::

    python3 benchmarks/suite/run.py --workload http_cold --seed 11 --seconds 8 --trace 0

Puts the repository's ``src`` and this package's parent on ``sys.path`` so
no ``PYTHONPATH`` is needed, then hands over to :mod:`suite.cli`.
"""

import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent), str(_HERE.parents[1] / "src")]

if __name__ == "__main__":
    try:
        from suite.cli import main
    except ModuleNotFoundError as error:
        # e.g. a directory holding only BENCHMARK.json and this package
        sys.exit(f"benchmarks/suite needs the repository it measures: {error}")
    sys.exit(main())
