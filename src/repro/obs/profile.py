"""A stdlib sampling profiler over ``sys._current_frames()``.

:class:`SamplingProfiler` runs one daemon thread that wakes ``hz`` times a
second and records every other thread's Python stack as a root-first tuple
of ``module.function`` labels.  Costs are paid *only while sampling*: a
stopped (or never-started) profiler is a handful of idle objects, and the
serving threads themselves are never instrumented — the sampler reads
their frames from the interpreter, so the hot path runs unmodified.  That
is what lets a production server keep ``--profile`` available without
measurable steady-state overhead.

Two renderings, both text-tool friendly:

* :meth:`SamplingProfiler.collapsed` — the collapsed-stack format
  (``frame;frame;frame count`` per line) that flamegraph tooling consumes
  directly;
* :meth:`SamplingProfiler.top` — per-function self/cumulative sample
  counts, the ``top(1)`` view of where time goes.

:func:`profile_endpoint` adapts either an on-demand burst (sample for
``seconds``, then render) or a continuously running profiler to the
``GET /v1/debug/profile`` route every app exposes (see
``docs/observability.md``).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import QueryError

__all__ = [
    "DEFAULT_HZ",
    "MAX_PROFILE_SECONDS",
    "SamplingProfiler",
    "profile_endpoint",
]

#: Default sampling frequency.  A prime, so the sampler does not phase-lock
#: with timers and periodic work that run at round frequencies.
DEFAULT_HZ = 97

#: Upper bounds a ``/v1/debug/profile`` request can ask for — an on-demand
#: profile blocks one handler thread for its whole duration.
MAX_PROFILE_SECONDS = 30.0
MAX_HZ = 997

#: Deepest stack recorded; frames below the cut are dropped (root side).
_MAX_DEPTH = 64

#: Most distinct stacks kept; pathological churn collapses into one bucket.
_MAX_STACKS = 10_000
_OVERFLOW_STACK = ("(stacks-truncated)",)


def _frame_label(frame) -> str:
    """``module.function`` for one frame (the collapsed-format atom)."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


def _walk_stack(frame) -> Tuple[str, ...]:
    """The stack of ``frame`` as a root-first label tuple, depth-capped."""
    labels: List[str] = []
    while frame is not None and len(labels) < _MAX_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class SamplingProfiler:
    """Sample every thread's Python stack from a background thread.

    Parameters
    ----------
    hz:
        Target samples per second (clamped to ``1..MAX_HZ``).  Each tick
        costs one ``sys._current_frames()`` call plus a stack walk per
        live thread, so even ``DEFAULT_HZ`` stays well under 1% of one
        core on a typical serving process.
    """

    def __init__(self, hz: int = DEFAULT_HZ):
        self.hz = max(1, min(int(hz), MAX_HZ))
        self._interval = 1.0 / self.hz
        self._samples: Counter = Counter()
        self._total = 0
        self._started_at: Optional[float] = None
        self._wall_seconds = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampler thread is currently collecting."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start sampling (idempotent while running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._started_at = time.perf_counter()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling; the collected samples remain readable."""
        with self._lock:
            thread = self._thread
            if thread is None:
                return self
            self._stop.set()
        thread.join(timeout=5.0)
        with self._lock:
            if self._started_at is not None:
                self._wall_seconds += time.perf_counter() - self._started_at
                self._started_at = None
            self._thread = None
        return self

    def _sample_loop(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self._interval):
            self._sample_once(own_id)

    def _sample_once(self, own_id: int) -> None:
        frames = sys._current_frames()
        stacks = [
            _walk_stack(frame)
            for thread_id, frame in frames.items()
            if thread_id != own_id
        ]
        del frames  # drop the frame references before sleeping again
        with self._lock:
            for stack in stacks:
                if stack not in self._samples and len(self._samples) >= _MAX_STACKS:
                    stack = _OVERFLOW_STACK
                self._samples[stack] += 1
                self._total += 1

    # -- reading ------------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        """Thread-stack samples recorded so far."""
        with self._lock:
            return self._total

    def wall_seconds(self) -> float:
        """Wall time spent sampling (running time counts up live)."""
        with self._lock:
            elapsed = self._wall_seconds
            if self._started_at is not None:
                elapsed += time.perf_counter() - self._started_at
            return elapsed

    def snapshot(self) -> Dict[Tuple[str, ...], int]:
        """The raw ``{stack: samples}`` counter (a copy)."""
        with self._lock:
            return dict(self._samples)

    def collapsed(self) -> str:
        """The samples in collapsed-stack format, one ``frames count`` line each.

        Frames are root-first and ``;``-joined — exactly what
        ``flamegraph.pl`` / speedscope / inferno consume.
        """
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def top(self, limit: int = 30) -> List[Dict[str, Any]]:
        """Per-function sample counts, hottest first.

        ``self`` counts samples where the function was the innermost frame
        (it was *executing*); ``cumulative`` counts samples where it was
        anywhere on the stack (it was *on the path*).
        """
        self_counts: Counter = Counter()
        cumulative: Counter = Counter()
        total = 0
        for stack, count in self.snapshot().items():
            total += count
            self_counts[stack[-1]] += count
            for label in set(stack):
                cumulative[label] += count
        rows = [
            {
                "function": label,
                "self": count,
                "self_fraction": count / total if total else 0.0,
                "cumulative": cumulative[label],
                "cumulative_fraction": cumulative[label] / total if total else 0.0,
            }
            for label, count in self_counts.most_common(limit)
        ]
        return rows


def _float_param(params: Dict[str, str], name: str, default: float,
                 upper: float) -> float:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise QueryError(f"{name} must be a number, got {raw!r}") from None
    if value <= 0:
        raise QueryError(f"{name} must be positive, got {value}")
    return min(value, upper)


def profile_endpoint(params: Dict[str, str],
                     continuous: Optional[SamplingProfiler] = None):
    """Serve one ``GET /v1/debug/profile`` request.

    With a ``continuous`` profiler running and no explicit ``seconds``,
    the accumulated samples are rendered without interrupting collection.
    Otherwise a fresh profiler samples for ``seconds`` (default 1, capped
    at :data:`MAX_PROFILE_SECONDS`) at ``hz`` — blocking this handler
    thread, which is the point: the *other* threads are the ones profiled.

    Returns a JSON-native dictionary (``format=top``, the default) or a
    ``(content_type, text)`` pair (``format=collapsed``) — the two shapes
    GET dispatch understands.
    """
    fmt = params.get("format", "top")
    if fmt not in ("top", "collapsed"):
        raise QueryError(
            f"unknown profile format {fmt!r}; expected 'top' or 'collapsed'"
        )
    hz = int(_float_param(params, "hz", DEFAULT_HZ, MAX_HZ))
    if continuous is not None and continuous.running and "seconds" not in params:
        profiler = continuous
        source = "continuous"
    else:
        seconds = _float_param(params, "seconds", 1.0, MAX_PROFILE_SECONDS)
        profiler = SamplingProfiler(hz=hz).start()
        time.sleep(seconds)
        profiler.stop()
        source = "on_demand"
    if fmt == "collapsed":
        return ("text/plain; charset=utf-8", profiler.collapsed())
    limit = int(_float_param(params, "limit", 30, 1000))
    return {
        "source": source,
        "hz": profiler.hz,
        "wall_seconds": profiler.wall_seconds(),
        "samples": profiler.total_samples,
        "functions": profiler.top(limit),
    }
