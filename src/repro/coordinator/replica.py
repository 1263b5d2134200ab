"""Per-replica health: circuit breakers, retry backoff, replica selection.

The coordinator's fault-tolerance primitives live here, transport-agnostic
so the failure-matrix tests can drive them with a fake clock:

* :class:`CircuitBreaker` — the classic three-state machine per replica.
  ``closed`` passes traffic and counts *consecutive* failures; at
  ``failure_threshold`` it trips ``open`` and sheds instantly (no connect
  timeouts against a dead host on the query path); after
  ``reset_timeout`` seconds one probe is let through (``half_open``) and
  its outcome closes or re-opens the circuit.
* :class:`BackoffPolicy` — capped exponential backoff with deterministic
  seeded jitter for the retry loop between failover attempts.
* :class:`ReplicaSet` — one partition's replicas in preference order,
  each with its own breaker; :meth:`ReplicaSet.candidates` yields the
  replicas a scan should try, healthy first.

Everything takes an injectable ``clock`` (and the policy a seeded RNG), so
open→half-open→closed transitions and backoff schedules are testable
without sleeping.
"""

from __future__ import annotations

import threading
import time
from random import Random
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ShardError

__all__ = ["CircuitBreaker", "BackoffPolicy", "ReplicaState", "ReplicaSet"]

#: Breaker state names, as reported by health surfaces.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """A consecutive-failure circuit breaker with half-open probing.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the circuit open.
    reset_timeout:
        Seconds an open circuit sheds traffic before allowing one
        half-open probe.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, *, failure_threshold: int = 3, reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ShardError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ShardError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._opens = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` — time-aware: an open
        circuit whose reset timeout has elapsed reads as ``half_open``."""
        with self._lock:
            if (self._state == OPEN
                    and self._clock() - self._opened_at >= self.reset_timeout):
                return HALF_OPEN
            return self._state

    @property
    def opens(self) -> int:
        """How many times the circuit has tripped open (a counter, not a state)."""
        with self._lock:
            return self._opens

    def allow(self) -> bool:
        """May a request be sent now?

        ``closed`` always allows.  ``open`` sheds until ``reset_timeout``
        has elapsed, then transitions to ``half_open`` and allows exactly
        one probe; further calls shed until that probe reports an outcome.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = HALF_OPEN
                    return True
                return False
            # HALF_OPEN: one probe is already in flight; shed the rest
            # until record_success/record_failure resolves it.
            return False

    def record_success(self) -> None:
        """A request succeeded: close the circuit, clear the failure run."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """A request failed: extend the failure run, maybe trip the circuit.

        A failed half-open probe re-opens immediately (the backend is
        still down; wait out another reset window).
        """
        with self._lock:
            now = self._clock()
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = now
                self._opens += 1
                return
            self._consecutive_failures += 1
            if (self._state == CLOSED
                    and self._consecutive_failures >= self.failure_threshold):
                self._state = OPEN
                self._opened_at = now
                self._opens += 1

    def __repr__(self) -> str:
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self._consecutive_failures}, opens={self._opens})")


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(cap, base * multiplier**attempt)`` scaled by a jitter factor
    drawn uniformly from ``[1 - jitter, 1]`` using a seeded RNG — two
    policies built with the same seed produce the same schedule, which is
    what the backoff-timing tests pin down.
    """

    def __init__(self, *, base: float = 0.05, cap: float = 2.0,
                 multiplier: float = 2.0, jitter: float = 0.5, seed: int = 0):
        if base < 0 or cap < 0:
            raise ShardError("backoff base and cap must be non-negative")
        if multiplier < 1:
            raise ShardError("backoff multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ShardError("backoff jitter must be in [0, 1]")
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = Random(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        raw = min(self.cap, self.base * (self.multiplier ** attempt))
        if self.jitter == 0.0:
            return raw
        with self._lock:
            factor = 1.0 - self.jitter * self._rng.random()
        return raw * factor

    def __repr__(self) -> str:
        return (f"BackoffPolicy(base={self.base}, cap={self.cap}, "
                f"multiplier={self.multiplier}, jitter={self.jitter})")


class ReplicaState:
    """One replica URL of one partition, with its breaker and counters."""

    __slots__ = ("url", "breaker", "successes", "failures")

    def __init__(self, url: str, breaker: CircuitBreaker):
        self.url = url
        self.breaker = breaker
        self.successes = 0
        self.failures = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "url": self.url,
            "state": self.breaker.state,
            "successes": self.successes,
            "failures": self.failures,
            "circuit_opens": self.breaker.opens,
        }


class ReplicaSet:
    """One partition's replicas in preference order.

    The first replica in ``urls`` is the *primary* — candidate ordering
    prefers it while healthy, so a steady-state fleet keeps its keep-alive
    sockets warm on one replica per partition instead of spraying load
    across all of them.
    """

    def __init__(self, partition_id: str, urls: Sequence[str], *,
                 breaker_factory: Callable[[], CircuitBreaker]):
        if not urls:
            raise ShardError(f"partition {partition_id!r} needs at least one replica")
        self.partition_id = partition_id
        self.replicas: Tuple[ReplicaState, ...] = tuple(
            ReplicaState(url, breaker_factory()) for url in urls
        )

    def candidates(self) -> List[ReplicaState]:
        """Replicas a scan should try, in order.

        Healthy (non-``open``) replicas first, in preference order, then
        the open-circuit ones — when *every* replica's circuit is open the
        scan still tries them all rather than failing without a single
        attempt (fail-open: a recovered backend should not be unreachable
        just because its probe window has not come around yet).
        """
        healthy = [r for r in self.replicas if r.breaker.state != OPEN]
        shed = [r for r in self.replicas if r.breaker.state == OPEN]
        return healthy + shed

    def health(self) -> Dict[str, object]:
        """The read surface ``/v1/healthz`` reports per partition."""
        states = [replica.breaker.state for replica in self.replicas]
        return {
            "replicas": len(self.replicas),
            "healthy": sum(1 for state in states if state != OPEN),
            "open": sum(1 for state in states if state == OPEN),
            "half_open": sum(1 for state in states if state == HALF_OPEN),
        }

    def __repr__(self) -> str:
        return (f"ReplicaSet({self.partition_id!r}, "
                f"urls={[r.url for r in self.replicas]})")
