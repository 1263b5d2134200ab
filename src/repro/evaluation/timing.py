"""Timing utilities for the efficiency experiments.

Two notions of time coexist in the reproduction (docs/reproduction.md):

* **wall-clock time** of the single-process execution, measured with
  :class:`WallClockTimer`;
* **simulated parallel time** (critical path) and **simulated total work**
  of the distributed runs, read from the cluster's
  :class:`~repro.cluster.clock.SimulatedClock` and wrapped in a
  :class:`TimingSample` alongside the wall clock, so every benchmark can
  report all three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.cluster.cluster import SimulatedCluster

__all__ = ["WallClockTimer", "TimingSample", "measure"]


class WallClockTimer:
    """A context-manager stopwatch (``perf_counter`` based)."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "WallClockTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start

    @property
    def elapsed_ms(self) -> float:
        """Elapsed time in milliseconds."""
        return self.elapsed * 1000.0


@dataclass(frozen=True, slots=True)
class TimingSample:
    """One timing observation of an operation.

    Attributes
    ----------
    wall_seconds:
        Wall-clock duration of the single-process execution.
    simulated_critical_path:
        Simulated parallel makespan (work units); ``None`` when the
        operation did not involve the simulated cluster.
    simulated_total_work:
        Simulated total (sequential-equivalent) work; ``None`` likewise.
    messages:
        Number of inter-partition messages exchanged; ``None`` likewise.
    """

    wall_seconds: float
    simulated_critical_path: Optional[float] = None
    simulated_total_work: Optional[float] = None
    messages: Optional[int] = None

    @property
    def wall_ms(self) -> float:
        """Wall-clock duration in milliseconds."""
        return self.wall_seconds * 1000.0


def measure(operation, *, cluster: SimulatedCluster | None = None,
            reset_costs: bool = True) -> TimingSample:
    """Run ``operation()`` and collect wall-clock plus simulated costs.

    Parameters
    ----------
    operation:
        A zero-argument callable.
    cluster:
        When given, its simulated clock is (optionally reset and) read after
        the operation, so the sample also carries the simulated costs.
    reset_costs:
        Reset the cluster clock before running the operation (default), so
        the sample reflects only this operation.
    """
    if cluster is not None and reset_costs:
        cluster.reset_costs()
    with WallClockTimer() as timer:
        operation()
    if cluster is None:
        return TimingSample(wall_seconds=timer.elapsed)
    snapshot = cluster.costs()
    return TimingSample(
        wall_seconds=timer.elapsed,
        simulated_critical_path=snapshot.critical_path,
        simulated_total_work=snapshot.total_work,
        messages=snapshot.messages,
    )
