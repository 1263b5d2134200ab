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
* **Per-client token buckets** — rate limits keyed on the ``X-Client-Id``
  header (clientless requests share one anonymous bucket), so one noisy
  tenant cannot starve the rest.

Every rejection reason is counted and surfaced through
``repro_requests_shed_total{reason=...}``; the chaos harness asserts the
overload stage sheds here while the p99 of *accepted* queries stays
bounded.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.errors import AdmissionError, QueryError
from repro.obs.registry import MetricsRegistry

__all__ = ["TokenBucket", "AdmissionController"]

#: Most client buckets kept at once; least-recently-seen clients are
#: evicted first.  An evicted client restarts with a full burst — a bounded
#: memory footprint is worth that slack (same trade hot caches make).
CLIENT_BUCKET_LIMIT = 1024

#: Floor for Retry-After hints, seconds: short enough not to punish a
#: client for a transient spike, long enough that an immediate blind retry
#: (which would find the same backlog) is off the table.
MIN_RETRY_AFTER = 0.1


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Starts full (a new client may burst immediately).  ``take`` is lazy —
    tokens accrue on demand from the elapsed time, no refill thread.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated_at", "_clock", "_lock")

    def __init__(self, rate: float, burst: float, *,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise QueryError(f"token bucket rate must be positive, got {rate}")
        if burst < 1:
            raise QueryError(f"token bucket burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._clock = clock
        self._updated_at = clock()
        self._lock = threading.Lock()

    def take(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; False (and no debit) otherwise."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will have accrued (0.0 if available now)."""
        with self._lock:
            self._refill()
            deficit = tokens - self._tokens
            return max(0.0, deficit / self.rate)

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(float(self.burst),
                           self._tokens + (now - self._updated_at) * self.rate)
        self._updated_at = now

    def __repr__(self) -> str:
        with self._lock:
            return (f"TokenBucket(rate={self.rate}, burst={self.burst}, "
                    f"tokens={self._tokens:.2f})")


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
    client_rate / client_burst:
        Per-client token-bucket rate (queries/second) and burst capacity;
        ``client_rate=None`` disables rate limiting.
    clock:
        Injectable time source for the buckets (tests use a fake clock).
    """

    def __init__(self, engine, *, max_queue_depth: Optional[int] = None,
                 client_rate: Optional[float] = None, client_burst: int = 10,
                 clock: Callable[[], float] = time.monotonic):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise QueryError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if client_rate is not None and client_rate <= 0:
            raise QueryError(f"client_rate must be positive, got {client_rate}")
        if client_burst < 1:
            raise QueryError(f"client_burst must be >= 1, got {client_burst}")
        self.engine = engine
        self.max_queue_depth = max_queue_depth
        self.client_rate = client_rate
        self.client_burst = client_burst
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
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
        return self.max_queue_depth is not None or self.client_rate is not None

    # -- the decision -------------------------------------------------------------------

    def admit(self, *, queries: int = 1, deadline: Optional[float] = None,
              client_id: Optional[str] = None) -> None:
        """Admit ``queries`` requests' worth of work or raise :class:`AdmissionError`.

        Checks run cheapest-first and every rejection carries a
        ``Retry-After`` hint: the bucket's accrual time for a rate limit,
        the predicted backlog drain time for queue pressure.
        """
        if self.client_rate is not None:
            bucket = self._bucket_for(client_id or "(anonymous)")
            if not bucket.take(float(queries)):
                self._count_shed("rate_limit", queries)
                raise AdmissionError(
                    f"client {client_id or '(anonymous)'!s} is over its "
                    f"rate limit ({self.client_rate:g} queries/s, "
                    f"burst {self.client_burst})",
                    reason="rate_limit",
                    retry_after=max(MIN_RETRY_AFTER,
                                    bucket.retry_after(float(queries))),
                )
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

    def _bucket_for(self, client_id: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(self.client_rate, float(self.client_burst),
                                     clock=self._clock)
                self._buckets[client_id] = bucket
                while len(self._buckets) > CLIENT_BUCKET_LIMIT:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client_id)
            return bucket

    def _count_shed(self, reason: str, queries: int) -> None:
        self._shed.labels(reason).inc(queries)

    # -- exposition ---------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Flat counters for the ``/v1/metrics`` payload."""
        shed = self._shed.by_label()
        with self._lock:
            clients = len(self._buckets)
        return {
            "enabled": self.enabled,
            "max_queue_depth": self.max_queue_depth,
            "client_rate": self.client_rate,
            "admitted": self._admitted.get(),
            "shed": shed,
            "shed_total": sum(shed.values()),
            "tracked_clients": clients,
        }

    def __repr__(self) -> str:
        return (f"AdmissionController(max_queue_depth={self.max_queue_depth}, "
                f"client_rate={self.client_rate}, enabled={self.enabled})")
