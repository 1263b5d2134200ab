"""Typed metric instruments and the registry that owns them.

The instruments are the metrics *store*, not a view of one: a serving
object (``ServiceMetrics``, ``AdmissionController``, ``ShardedIndex``, a
shell) creates its families on a registry it owns, counts by calling
``inc`` / ``observe`` on them, and renders its section of the JSON
``/v1/metrics`` payload by reading them back (:meth:`MetricFamily.values`).
The Prometheus exposition renders the same instruments, so the two formats
cannot disagree — there is one number.  A shell publishes the families of
the objects it was handed with :meth:`MetricsRegistry.adopt`.

Three instrument types, modelled on the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (``inc``).  Integer
  increments keep the value an ``int``, which is what keeps counts JSON
  integers; only the exposition side (:meth:`MetricFamily.collect`)
  converts to float.
* :class:`Gauge` — point-in-time values (``set`` / ``set_function``).
* :class:`Histogram` — fixed-bucket latency distributions (``observe``),
  rendered as cumulative ``_bucket`` series plus ``_sum`` / ``_count``.

Instruments with label dimensions are *families*: ``family.labels(x)``
returns (creating on first use) the child for one label-value tuple; a
child that exists is found without taking a lock, so a hot path may ask
per event.  What is computed from live state rather than counted — open
connections, ``len(index)``, another object's own statistics — is read at
scrape time instead: ``set_function`` on one child, or a family-level
``set_callback`` returning ``{label_values: value}`` for a data-driven
label set.

Everything is stdlib-only and thread-safe (one lock per family); the
hot-path cost of ``observe`` is a bisect plus two additions.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
]

#: Default latency buckets (seconds): 0.5 ms up to 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Sample:
    """One exposed time series: a name, a label set, and a value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:
        return f"Sample({self.name!r}, {dict(self.labels)!r}, {self.value!r})"


def _check_label_values(labelnames: Sequence[str], values: Sequence[object]) -> Tuple[str, ...]:
    if len(values) != len(labelnames):
        raise ObservabilityError(
            f"expected {len(labelnames)} label value(s) for {tuple(labelnames)}, "
            f"got {len(values)}"
        )
    return tuple(str(value) for value in values)


class Counter:
    """A monotonically increasing total, or a scrape-time view of one."""

    __slots__ = ("_lock", "_value", "_function")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value: float = 0
        self._function: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1) -> None:
        """Increase the counter by ``amount`` (must be >= 0).

        The value stays an ``int`` for as long as every increment is one.
        """
        if amount < 0:
            raise ObservabilityError(f"counters can only increase, got {amount}")
        with self._lock:
            self._value += amount

    def set_function(self, function: Callable[[], float]) -> None:
        """Read the value from ``function()`` at scrape time instead."""
        with self._lock:
            self._function = function

    def get(self) -> float:
        """Current value (calls the backing function when one is set)."""
        with self._lock:
            function = self._function
            value = self._value
        return function() if function is not None else value


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("_lock", "_value", "_function")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def set_function(self, function: Callable[[], float]) -> None:
        """Read the value from ``function()`` at scrape time instead."""
        with self._lock:
            self._function = function

    def get(self) -> float:
        """Current value (calls the backing function when one is set)."""
        with self._lock:
            function = self._function
            value = self._value
        return float(function()) if function is not None else value


class Histogram:
    """A fixed-bucket distribution of observations.

    Buckets are cumulative at collection time (Prometheus semantics); the
    per-observation cost is one bisect over the upper bounds plus two
    additions, cheap enough for the query hot path.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]):
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ObservabilityError("histograms need at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"bucket bounds must be strictly increasing: {bounds}")
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self._bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1

    def get(self) -> Tuple[List[int], float, int]:
        """``(per-bucket counts, sum, count)`` — counts are *not* cumulative."""
        with self._lock:
            return list(self._counts), self._sum, self._count


class MetricFamily:
    """All time series sharing one metric name, type, and help string."""

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Sequence[str], lock: threading.Lock,
                 buckets: Optional[Sequence[float]] = None):
        if not _METRIC_NAME.match(name):
            raise ObservabilityError(f"invalid metric name: {name!r}")
        for labelname in labelnames:
            if not _LABEL_NAME.match(labelname) or labelname.startswith("__"):
                raise ObservabilityError(f"invalid label name: {labelname!r}")
        if kind == "histogram" and "le" in labelnames:
            raise ObservabilityError("'le' is reserved on histograms")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        if kind == "histogram" and buckets is None:
            buckets = DEFAULT_LATENCY_BUCKETS
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = lock
        self._children: Dict[Tuple[str, ...], object] = {}
        self._callback: Optional[Callable[[], Mapping[Sequence[object], float]]] = None

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets)

    def labels(self, *values: object):
        """The child instrument for one label-value tuple (created on first use)."""
        # Children are keyed by tuples of ``str`` and never removed, so a hit
        # on the values as given is the child; anything else (first use, a
        # non-string value, wrong arity) takes the checked path.
        child = self._children.get(values)
        if child is not None:
            return child
        key = _check_label_values(self.labelnames, values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    # Convenience for label-less families: act directly as the single child.

    def inc(self, amount: float = 1) -> None:
        """Shorthand for ``family.labels().inc(amount)`` on label-less families."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Shorthand for ``family.labels().set(value)`` on label-less families."""
        self.labels().set(value)

    def observe(self, value: float) -> None:
        """Shorthand for ``family.labels().observe(value)`` on label-less families."""
        self.labels().observe(value)

    def set_function(self, function: Callable[[], float]) -> None:
        """Shorthand for ``family.labels().set_function(fn)`` on label-less families."""
        self.labels().set_function(function)

    def set_callback(self, callback: Callable[[], Mapping[Sequence[object], float]]) -> None:
        """Enumerate ``{label_values: value}`` at scrape time.

        For counter/gauge families over another object's own statistics
        (per-partition socket counts, breaker trips): the callback
        recomputes every series on each read, replacing any static children.
        """
        if self.kind == "histogram":
            raise ObservabilityError("histogram families cannot be callback-backed")
        with self._lock:
            self._callback = callback

    # -- reading ------------------------------------------------------------------------

    def values(self) -> Dict[Tuple[str, ...], object]:
        """``{label values: current value}`` for every series of the family.

        The read side of the JSON payload: counter and gauge values come
        back as stored (an ``int`` where every increment was one), a
        histogram child as its ``(per-bucket counts, sum, count)``.
        """
        with self._lock:
            callback = self._callback
            children = list(self._children.items())
        if callback is not None:
            return {
                _check_label_values(
                    self.labelnames,
                    raw_key if isinstance(raw_key, (tuple, list)) else (raw_key,)): value
                for raw_key, value in callback().items()
            }
        return {key: child.get() for key, child in children}

    def by_label(self) -> Dict[str, object]:
        """:meth:`values` of a one-label family, keyed by the bare label value —
        the ``{"knn": 3, "range": 1}`` shape the JSON payload uses."""
        return {key: value for (key,), value in self.values().items()}

    def _label_tuple(self, values: Sequence[str],
                     extra: Tuple[Tuple[str, str], ...] = ()) -> Tuple[Tuple[str, str], ...]:
        return tuple(zip(self.labelnames, values)) + extra

    def collect(self) -> List[Sample]:
        """Flatten the family into exposition samples (histograms cumulative)."""
        samples: List[Sample] = []
        for key, value in sorted(self.values().items()):
            if self.kind in ("counter", "gauge"):
                samples.append(Sample(self.name, self._label_tuple(key), float(value)))
                continue
            counts, total, count = value
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                samples.append(Sample(
                    f"{self.name}_bucket",
                    self._label_tuple(key, (("le", _format_bound(bound)),)),
                    float(cumulative),
                ))
            samples.append(Sample(f"{self.name}_bucket",
                                  self._label_tuple(key, (("le", "+Inf"),)),
                                  float(count)))
            samples.append(Sample(f"{self.name}_sum", self._label_tuple(key), total))
            samples.append(Sample(f"{self.name}_count", self._label_tuple(key), float(count)))
        return samples


def _format_bound(bound: float) -> str:
    """Bucket bound as Prometheus renders it (integral bounds without '.0')."""
    if bound == int(bound):
        return str(int(bound)) + ".0"
    return repr(bound)


class MetricsRegistry:
    """A process-local set of metric families, collected for exposition.

    Registration is idempotent: asking for an existing name with the same
    type and label names returns the existing family, while a mismatch
    raises :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _register(self, name: str, kind: str, help_text: str,
                  labelnames: Sequence[str],
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != tuple(labelnames):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            family = MetricFamily(name, kind, help_text, labelnames,
                                  threading.Lock(), buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> MetricFamily:
        """Register (or fetch) a histogram family with fixed ``buckets``."""
        return self._register(name, "histogram", help_text, labelnames, buckets)

    def adopt(self, other: "MetricsRegistry") -> None:
        """Publish every family of ``other`` through this registry too.

        The families are shared, not copied: ``other``'s owner keeps
        counting on them and this registry's exposition shows the live
        values.  A name both registries already hold is an error.
        """
        families = other.collect()
        with self._lock:
            for family in families:
                if self._families.setdefault(family.name, family) is not family:
                    raise ObservabilityError(
                        f"cannot adopt metric {family.name!r}: already registered")

    def collect(self) -> List[MetricFamily]:
        """Every registered family, in name order."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render(self) -> str:
        """The registry as Prometheus text exposition v0.0.4."""
        from repro.obs.prometheus import render_exposition
        return render_exposition(self)
