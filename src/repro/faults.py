"""Deterministic fault injection for chaos testing the serving stack.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules — *where* a
fault fires (an operation name plus a target substring), *what* it does
(added latency, a simulated connection error, a 5xx response, a slow-drip
response) and *how often* (an activation probability driven by a seeded
RNG, an optional skip count and an optional fire budget).  The plan is the
single source of chaos in the process: the shard transport
(:class:`~repro.coordinator.transport.HttpShardTransport`) consults it
before every scan attempt and the HTTP handler
(:mod:`repro.server.http`) consults it before every request, so the same
plan description can break either side of the wire.

Determinism is the point: two runs with the same plan JSON and the same
call sequence inject exactly the same faults, which is what lets the
chaos harness (``tools/chaos_smoke.py``) assert hard outcomes ("zero
failed queries after the circuit opens") instead of flaky probabilities.

Plans are wired in three ways:

* programmatically — ``FaultPlan([FaultSpec(...)])``;
* from JSON — :meth:`FaultPlan.from_json` (the CLI ``--faults`` flag);
* from the environment — :meth:`FaultPlan.from_env` reads ``REPRO_FAULTS``,
  which is how the chaos harness poisons *subprocess* servers it spawns.

The JSON form is a list of spec objects (or ``{"seed": ..., "faults":
[...]}``)::

    [{"operation": "handle", "target": "/v1/knn", "kind": "latency",
      "latency": 0.05, "probability": 0.5}]
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "InjectedFault"]

#: Everything a spec's ``kind`` may name.
#:
#: * ``latency`` — sleep before the operation proceeds normally.
#: * ``error`` — the operation fails as if the connection was reset.
#: * ``http_5xx`` — an HTTP surface answers with ``status`` instead.
#: * ``slow_drip`` — the response body is written in small chunks with the
#:   configured latency spread across them (a pathologically slow peer).
FAULT_KINDS = ("latency", "error", "http_5xx", "slow_drip")

#: Environment variable :meth:`FaultPlan.from_env` reads.
ENV_VAR = "REPRO_FAULTS"


class InjectedFault(ReproError):
    """Raised where an ``error``-kind fault fires in-process.

    Carries enough to look like a real transport failure to the layer
    above (the shard transport maps it onto the same retry/breaker path a
    genuine connection reset takes).
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where it fires, what it does, how often.

    Attributes
    ----------
    operation:
        Which instrumented call site the rule applies to: ``"scan"`` (the
        shard transport, once per scan attempt), ``"handle"`` (the HTTP
        handler, once per request) or ``"*"`` for both.
    target:
        Substring matched against the call site's target label — the
        ``partition@url`` of a scan, the route of a request.  ``"*"`` (or
        ``""``) matches everything.
    kind:
        One of :data:`FAULT_KINDS`.
    latency:
        Seconds of injected delay (``latency`` and ``slow_drip`` kinds).
    status:
        Response status for ``http_5xx`` faults.
    probability:
        Activation probability per matching call, driven by the plan's
        seeded RNG (1.0 = every matching call).
    skip_first:
        Let this many matching calls through unharmed before arming.
    max_fires:
        Stop firing after this many injections (``None`` = unlimited).
    """

    operation: str = "*"
    target: str = "*"
    kind: str = "latency"
    latency: float = 0.0
    status: int = 503
    probability: float = 1.0
    skip_first: int = 0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.latency < 0:
            raise ReproError("fault latency must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError("fault probability must be in [0, 1]")
        if self.skip_first < 0:
            raise ReproError("skip_first must be non-negative")
        if self.max_fires is not None and self.max_fires < 0:
            raise ReproError("max_fires must be non-negative")
        if not 500 <= self.status <= 599:
            raise ReproError("an http_5xx fault needs a 5xx status")

    def matches(self, operation: str, target: str) -> bool:
        if self.operation not in ("*", operation):
            return False
        return self.target in ("*", "") or self.target in target

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise ReproError(
                f"a fault spec must be a JSON object, got {type(payload).__name__}"
            )
        allowed = {"operation", "target", "kind", "latency", "status",
                   "probability", "skip_first", "max_fires"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ReproError(
                f"unknown fault spec field(s) {', '.join(map(repr, unknown))}"
            )
        return cls(**payload)

    def to_dict(self) -> Dict:
        payload: Dict = {
            "operation": self.operation, "target": self.target, "kind": self.kind,
        }
        if self.latency:
            payload["latency"] = self.latency
        if self.kind == "http_5xx":
            payload["status"] = self.status
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.skip_first:
            payload["skip_first"] = self.skip_first
        if self.max_fires is not None:
            payload["max_fires"] = self.max_fires
        return payload


class _SpecState:
    """Mutable per-spec bookkeeping (seen/fired counts) behind the plan lock."""

    __slots__ = ("spec", "seen", "fired")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.seen = 0
        self.fired = 0


class FaultPlan:
    """A deterministic, thread-safe schedule of faults.

    Parameters
    ----------
    specs:
        The fault rules, evaluated in order; the first rule that fires
        wins for a given call (rules are not stacked).
    seed:
        Seeds the RNG behind every ``probability < 1`` decision, so a
        plan replays identically for an identical call sequence.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *, seed: int = 0):
        self._states = [_SpecState(spec) for spec in specs]
        self._rng = Random(seed)
        self._seed = seed
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._states)

    # -- the decision -------------------------------------------------------------------

    def decide(self, operation: str, target: str = "") -> Optional[FaultSpec]:
        """The fault (if any) to inject for one call at ``operation``/``target``.

        Evaluates specs in declaration order under one lock: counters and
        the RNG advance deterministically however many threads call in,
        for a fixed arrival order.
        """
        with self._lock:
            for state in self._states:
                spec = state.spec
                if not spec.matches(operation, target):
                    continue
                state.seen += 1
                if state.seen <= spec.skip_first:
                    continue
                if spec.max_fires is not None and state.fired >= spec.max_fires:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                state.fired += 1
                return spec
        return None

    def stats(self) -> List[Dict]:
        """Per-spec injection counters (matching calls seen, faults fired)."""
        with self._lock:
            return [
                {"spec": state.spec.to_dict(), "seen": state.seen,
                 "fired": state.fired}
                for state in self._states
            ]

    def fired(self) -> int:
        """Total faults injected so far, across every spec."""
        with self._lock:
            return sum(state.fired for state in self._states)

    # -- construction -------------------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON: a spec list, or ``{"seed", "faults"}``."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"fault plan is not valid JSON: {error}") from error
        seed = 0
        if isinstance(payload, dict):
            unknown = sorted(set(payload) - {"seed", "faults"})
            if unknown:
                raise ReproError(
                    f"unknown fault plan field(s) {', '.join(map(repr, unknown))}"
                )
            seed = payload.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ReproError("fault plan seed must be an integer")
            payload = payload.get("faults", [])
        if not isinstance(payload, list):
            raise ReproError("a fault plan must be a JSON array of fault specs")
        return cls([FaultSpec.from_dict(entry) for entry in payload], seed=seed)

    @classmethod
    def from_source(cls, raw: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a plan from JSON text *or* a path to a JSON file (the
        CLI ``--faults`` argument form); ``None``/blank yields no plan."""
        raw = (raw or "").strip()
        if not raw:
            return None
        if not raw.startswith(("[", "{")) and os.path.exists(raw):
            raw = open(raw, encoding="utf-8").read()
        return cls.from_json(raw)

    @classmethod
    def from_env(cls, variable: str = ENV_VAR) -> Optional["FaultPlan"]:
        """The plan in ``$REPRO_FAULTS`` (JSON text, or a path to a JSON
        file), or ``None`` when the variable is unset/empty.

        This is how chaos runs poison subprocess servers: export the plan,
        spawn the fleet, every child picks it up at boot.
        """
        return cls.from_source(os.environ.get(variable))

    def to_dict(self) -> Dict:
        """The JSON-ready plan description (seed + specs, not counters)."""
        return {
            "seed": self._seed,
            "faults": [state.spec.to_dict() for state in self._states],
        }

    def __repr__(self) -> str:
        return f"FaultPlan(specs={len(self._states)}, fired={self.fired()})"
