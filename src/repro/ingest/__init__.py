"""Live ingestion above :class:`~repro.core.semtree.SemTreeIndex`.

The LSM-style write path that lets the index absorb an insert stream while
serving reads, instead of quiescing queries between mutation batches:

* :mod:`repro.ingest.wal` — append-only write-ahead log (JSON lines,
  replay-on-open, torn-tail tolerance);
* :mod:`repro.ingest.delta` — the in-memory linear-scan segment holding
  freshly inserted, FastMap-projected points, immediately queryable;
* :mod:`repro.ingest.ingesting` — :class:`IngestingIndex`, merging tree ∪
  delta reads with exact semantics under an epoch/read-write-lock scheme,
  threshold-driven folding of the delta into the distributed tree on the
  caller's thread (:meth:`IngestingIndex.maybe_compact`), plus
  checkpoint/recover;
* :mod:`repro.ingest.rwlock` — the writer-preferring readers–writer lock.

See ``docs/ingest.md`` for the subsystem guide.
"""

from repro.ingest.delta import DeltaIndex
from repro.ingest.ingesting import DEFAULT_COMPACTION_THRESHOLD, IngestingIndex
from repro.ingest.rwlock import ReadWriteLock
from repro.ingest.wal import WalRecord, WriteAheadLog

__all__ = [
    "IngestingIndex",
    "DEFAULT_COMPACTION_THRESHOLD",
    "WriteAheadLog",
    "WalRecord",
    "DeltaIndex",
    "ReadWriteLock",
]
