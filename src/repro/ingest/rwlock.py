"""A writer-preferring readers–writer lock for the ingestion epoch scheme.

Queries and inserts of :class:`~repro.ingest.ingesting.IngestingIndex` are
*readers* of the distributed tree (inserts only touch the write-ahead log
and the delta segment), so any number of them proceed in parallel.  A
compaction and a checkpoint are the only *writers*: they mutate the tree
(and the generation), so they get exclusive access — but only for the
duration of one fold or snapshot, which is what replaces PR 1's "quiesce all
queries between batches" rule.

The lock prefers writers: once a compaction is waiting, new readers queue
behind it.  Compactions are rare and bounded (one ``insert_all`` of the
delta), so readers are never starved; without the preference a steady query
stream could delay a compaction indefinitely and let the delta — and every
query's linear-scan share — grow without bound.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Many concurrent readers, one exclusive writer, writers preferred.

    Not reentrant: a thread must not acquire the lock (either side) while
    already holding it.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- reader side --------------------------------------------------------------------

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    @contextmanager
    def read(self):
        """``with lock.read():`` — shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- writer side --------------------------------------------------------------------

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    @contextmanager
    def write(self):
        """``with lock.write():`` — exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        with self._condition:
            return (
                f"ReadWriteLock(readers={self._active_readers}, "
                f"writer={self._writer_active}, waiting={self._writers_waiting})"
            )
