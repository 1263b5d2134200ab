"""Admission control: shed load *before* it queues, not after it times out.

An overloaded engine used to queue silently — every accepted query waited
behind the backlog, missed its deadline, and burned a worker computing an
answer nobody would read.  :class:`AdmissionController` sits in front of
:meth:`~repro.service.engine.QueryEngine.execute_batch` and rejects at the
door instead, with HTTP semantics (503 + ``Retry-After``, via
:class:`~repro.errors.AdmissionError`) so well-behaved clients back off:

* **Bounded queue depth** — more than ``max_queue_depth`` searches
  outstanding (queued + running) rejects immediately: past that point the
  queue only manufactures timeouts.
* **Deadline-aware rejection** — a query whose predicted queue wait
  (:meth:`QueryEngine.predicted_wait_seconds`) already exceeds its deadline
  is rejected up front; accepting it would waste a worker on a result the
  client has given up on.

Every rejection reason is counted and surfaced through
``repro_requests_shed_total{reason=...}``; the chaos harness asserts the
overload stage sheds here while the p99 of *accepted* queries stays
bounded.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import AdmissionError, QueryError
from repro.obs.registry import MetricsRegistry

__all__ = ["AdmissionController"]

#: Floor for Retry-After hints, seconds: short enough not to punish a
#: client for a transient spike, long enough that an immediate blind retry
#: (which would find the same backlog) is off the table.
MIN_RETRY_AFTER = 0.1


class AdmissionController:
    """Accept-or-shed decisions in front of the query engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.engine.QueryEngine` whose backlog the
        controller reads (``outstanding()`` / ``predicted_wait_seconds()``).
    max_queue_depth:
        Most searches allowed outstanding (queued + running) before new
        queries are shed; ``None`` disables the depth check.
    """

    def __init__(self, engine, *, max_queue_depth: Optional[int] = None):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise QueryError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.engine = engine
        self.max_queue_depth = max_queue_depth
        self.registry = MetricsRegistry()
        self._admitted = self.registry.counter(
            "repro_requests_admitted_total",
            "Queries accepted past admission control.").labels()
        self._shed = self.registry.counter(
            "repro_requests_shed_total",
            "Queries rejected by admission control, by reason.", ("reason",))

    @property
    def enabled(self) -> bool:
        """Whether any admission check is configured at all."""
        return self.max_queue_depth is not None

    # -- the decision -------------------------------------------------------------------

    def admit(self, *, queries: int = 1, deadline: Optional[float] = None) -> None:
        """Admit ``queries`` requests' worth of work or raise :class:`AdmissionError`.

        Every rejection carries a ``Retry-After`` hint: the predicted
        backlog drain time.
        """
        if self.max_queue_depth is not None:
            outstanding = self.engine.outstanding()
            if outstanding + queries > self.max_queue_depth:
                self._count_shed("queue_full", queries)
                raise AdmissionError(
                    f"the query queue is full ({outstanding} outstanding, "
                    f"depth limit {self.max_queue_depth})",
                    reason="queue_full",
                    retry_after=max(MIN_RETRY_AFTER,
                                    self.engine.predicted_wait_seconds()),
                )
        if deadline is not None:
            predicted = self.engine.predicted_wait_seconds()
            if predicted > deadline:
                # The query would spend its whole budget waiting in line;
                # running the search anyway only manufactures a timeout.
                self._count_shed("deadline", queries)
                raise AdmissionError(
                    f"predicted queue wait {predicted:.3f}s exceeds the "
                    f"query deadline {deadline:.3f}s",
                    reason="deadline",
                    retry_after=max(MIN_RETRY_AFTER, predicted),
                )
        self._admitted.inc(queries)

    def shed_transport_overflow(self, *, pending: int) -> AdmissionError:
        """Count and build the rejection for a request shed at *enqueue* time.

        The event-loop transport calls this before submitting a query to
        its worker pool: once the pool already holds ``max_queue_depth``
        queries, queueing more only manufactures timeouts — the same
        judgement :meth:`admit` makes from inside a worker, made one hop
        earlier (before the submit and its context switch are paid for).
        The rejection is counted under the ``queue_full`` reason so both
        shed points roll up into one ``repro_requests_shed_total`` series.
        """
        self._count_shed("queue_full", 1)
        return AdmissionError(
            f"the transport queue is full ({pending} queries pending, "
            f"depth limit {self.max_queue_depth})",
            reason="queue_full",
            retry_after=max(MIN_RETRY_AFTER,
                            self.engine.predicted_wait_seconds()),
        )

    def _count_shed(self, reason: str, queries: int) -> None:
        self._shed.labels(reason).inc(queries)

    # -- exposition ---------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Flat counters for the ``/v1/metrics`` payload."""
        shed = self._shed.by_label()
        return {
            "enabled": self.enabled,
            "max_queue_depth": self.max_queue_depth,
            "admitted": self._admitted.get(),
            "shed": shed,
            "shed_total": sum(shed.values()),
        }

    def __repr__(self) -> str:
        return (f"AdmissionController(max_queue_depth={self.max_queue_depth}, "
                f"enabled={self.enabled})")
