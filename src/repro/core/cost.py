"""Per-query cost accounting: counters for the *work* a search performs.

Span trees (``repro.obs.tracing``) show where wall-clock time went;
:class:`SearchCost` shows what the search **did** — exact distance
computations, vectorized squared-distance rows, rows pruned by the radius
prefilter, kernel batches versus scalar fallbacks, buckets scanned.  The
paper's claim is about pruning work in a distributed metric tree, so work
done per query is the observable that matters.

A :class:`SearchCost` rides inside every search state
(:class:`~repro.core.knn.KSearchState`,
:class:`~repro.core.distributed.RangeSearchState`), crosses the shard wire
inside :class:`~repro.cluster.transport.PartitionScan` payloads, is summed
cluster-wide by the coordinator gather, and surfaces in
:class:`~repro.core.semtree.SearchOutcome` → the serving metrics, the
``debug.trace`` payload.

The counters are deliberately plain integer attributes bumped inline (no
locks, no callables): a search state is single-threaded, and the hot-path
overhead must stay under the 5% warm-QPS budget the perf gate enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["SearchCost"]

#: The wire/dict field names, in stable presentation order.
_FIELDS = (
    "distance_computations",
    "squared_distance_rows",
    "pruned_by_radius",
    "kernel_batches",
    "scalar_fallbacks",
    "buckets_scanned",
)


@dataclass(slots=True)
class SearchCost:
    """Mutable work counters for one search (or one aggregated gather).

    Attributes
    ----------
    distance_computations:
        Exact :func:`~repro.core.geometry.euclidean_distance` evaluations
        (the paper's *d(x, q)* count — the pruning claim's denominator).
    squared_distance_rows:
        Bucket rows pushed through the vectorized squared-distance pass.
    pruned_by_radius:
        Rows the squared-distance prefilter discarded without an exact
        distance computation.
    kernel_batches:
        Vectorized leaf-kernel invocations.
    scalar_fallbacks:
        Leaf scans that ran the scalar oracle (kernel ``scalar``, or a
        bucket under the vectorization cutoff).
    buckets_scanned:
        Leaf buckets visited (vectorized + scalar).
    """

    distance_computations: int = 0
    squared_distance_rows: int = 0
    pruned_by_radius: int = 0
    kernel_batches: int = 0
    scalar_fallbacks: int = 0
    buckets_scanned: int = 0

    def add(self, other: Optional["SearchCost"]) -> "SearchCost":
        """Accumulate ``other`` into self (``None`` is a no-op); returns self."""
        if other is not None:
            self.distance_computations += other.distance_computations
            self.squared_distance_rows += other.squared_distance_rows
            self.pruned_by_radius += other.pruned_by_radius
            self.kernel_batches += other.kernel_batches
            self.scalar_fallbacks += other.scalar_fallbacks
            self.buckets_scanned += other.buckets_scanned
        return self

    def to_dict(self) -> Dict[str, int]:
        """A plain JSON-ready mapping (stable key order)."""
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, Any]]) -> "SearchCost":
        """Rebuild from a wire payload; missing keys read as 0.

        Tolerant by design: an older shard that does not emit ``cost`` yet
        (or a payload with a subset of counters) still parses, so mixed
        fleets keep working during a rolling upgrade.
        """
        cost = cls()
        if payload:
            for name in _FIELDS:
                value = payload.get(name)
                if value is not None:
                    setattr(cost, name, int(value))
        return cost

    def is_zero(self) -> bool:
        """True when no work has been recorded (renderers omit empty costs)."""
        return all(getattr(self, name) == 0 for name in _FIELDS)
