"""The serving layer above :class:`~repro.core.semtree.SemTreeIndex`.

Turns the one-query-at-a-time index into a query-serving engine:

* :mod:`repro.service.planner` — query specs, embedding-once normalisation
  and cache keys;
* :mod:`repro.service.cache` — LRU result cache with generation-based
  invalidation (stale answers are never served after incremental inserts);
* :mod:`repro.service.engine` — single and batched queries served on the
  caller's thread, a bound on searches running at once, per-query
  deadlines, sequential-equivalence guarantee;
* :mod:`repro.service.snapshot` — save/load of a built index so a service
  warm-starts instead of re-embedding and re-building;
* :mod:`repro.service.metrics` — QPS, latency percentiles, cache hit rate
  and per-partition load counters.

See ``docs/service.md`` for the subsystem guide.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.engine import QueryEngine, QueryResult
from repro.service.metrics import IngestMetrics, ServiceMetrics, percentile
from repro.service.planner import (PlannedQuery, QueryKind, QueryPlanner, QuerySpec,
                                   ServableIndex)
from repro.service.snapshot import (SNAPSHOT_FORMAT, SNAPSHOT_VERSION, load_index,
                                    save_index)

__all__ = [
    "QueryEngine",
    "QueryResult",
    "QueryPlanner",
    "PlannedQuery",
    "QuerySpec",
    "QueryKind",
    "ServableIndex",
    "ResultCache",
    "CacheStats",
    "ServiceMetrics",
    "IngestMetrics",
    "percentile",
    "save_index",
    "load_index",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]
