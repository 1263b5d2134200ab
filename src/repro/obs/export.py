"""Series a serving shell adds to its registry that nothing *counts*.

Event counts live on instruments their owners increment (see
:mod:`repro.obs.registry`).  What is left for these helpers is state that
is computed or owned elsewhere: process runtime (build info, uptime) and
the result cache, whose :class:`~repro.service.cache.CacheStats` is kept
under the cache's own lock with its entries — read through scrape-time
functions, duck-typed on ``cache.stats`` so ``repro.obs`` imports nothing
from the higher layers.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.obs.registry import MetricsRegistry

__all__ = ["bind_cache", "bind_runtime"]


def bind_runtime(registry: MetricsRegistry, *, role: str, version: str) -> None:
    """Register process-level series: build info and uptime.

    ``repro_build_info`` carries the role (server / coordinator / shard)
    and library version as labels with a constant value of 1 — the
    conventional way to make build metadata joinable in PromQL.
    """
    registry.gauge(
        "repro_build_info", "Build and role metadata (constant 1).",
        ("role", "version"),
    ).labels(role, version).set(1.0)
    started = time.monotonic()
    registry.gauge(
        "repro_uptime_seconds", "Seconds since the application booted.",
    ).set_function(lambda: time.monotonic() - started)


def bind_cache(registry: MetricsRegistry, cache) -> None:
    """Expose the result cache's counters and sizes at scrape time.

    ``cache`` needs only a ``stats`` property returning an object with
    ``hits`` / ``misses`` / ``evictions`` / ``expirations`` /
    ``invalidations`` / ``promotions`` / ``size`` / ``protected_size``
    attributes — i.e. :class:`repro.service.cache.CacheStats`.
    """
    def reader(attribute: str) -> Callable[[], float]:
        return lambda: float(getattr(cache.stats, attribute))

    counters: Dict[str, str] = {
        "hits": "Result cache hits.",
        "misses": "Result cache misses.",
        "evictions": "Result cache LRU evictions.",
        "expirations": "Result cache TTL expirations.",
        "invalidations": "Result cache generation invalidations.",
        "promotions": "Result cache promotions into the protected segment.",
    }
    for attribute, help_text in counters.items():
        registry.counter(
            f"repro_cache_{attribute}_total", help_text,
        ).set_function(reader(attribute))
    registry.gauge(
        "repro_cache_size", "Entries currently resident in the result cache.",
    ).set_function(reader("size"))
    registry.gauge(
        "repro_cache_protected_size",
        "Entries in the protected (frequently-hit) cache segment.",
    ).set_function(reader("protected_size"))
