"""The point count every surface reports while a compaction is mid-fold.

``compact()`` drains the delta and only then inserts the drained points
into the tree, one by one, under the write lock.  A count taken in between
without the lock misses every acknowledged point still in the fold's
hands — and that count is ``len(index)``, ``/v1/index`` ``points``,
``/healthz`` ``points`` and the ``repro_index_points`` gauge.  The test
parks a fold on its first tree insert, asks from another thread, and lets
the fold finish: no reader may have seen fewer points than were inserted.
"""

from __future__ import annotations

import threading

import pytest

from server_corpus import INSERT_TRIPLES, STREAM_TRIPLES

READERS = {
    "len": lambda server: len(server.app.index),
    "statistics": lambda server: server.app.index.statistics()["points"],
    "index_info": lambda server: server.app.index_info({})["points"],
    "healthz": lambda server: server.app.health({})["points"],
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_point_count_never_drops_while_a_fold_is_parked(make_server, reader):
    server, _ = make_server(compaction_threshold=10_000)
    live = server.app.index
    for triple in INSERT_TRIPLES + STREAM_TRIPLES:
        live.insert(triple)
    acknowledged = len(live)
    assert len(live.delta) == len(INSERT_TRIPLES + STREAM_TRIPLES)

    parked, release = threading.Event(), threading.Event()
    tree_insert = live.base.tree.insert

    def parking_insert(point):
        parked.set()
        assert release.wait(10.0)
        return tree_insert(point)

    live.base.tree.insert = parking_insert
    seen = []
    folder = threading.Thread(target=live.compact)
    asker = threading.Thread(target=lambda: seen.append(READERS[reader](server)))
    folder.start()
    try:
        assert parked.wait(10.0)          # delta drained, nothing in the tree yet
        asker.start()
        asker.join(0.2)                   # an unlocked count has answered by now
    finally:
        release.set()
    folder.join(10.0)
    asker.join(10.0)
    assert not folder.is_alive() and not asker.is_alive()
    assert seen == [acknowledged]
    assert len(live) == acknowledged and len(live.delta) == 0
