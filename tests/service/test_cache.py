"""Tests for the LRU result cache and its generation-based invalidation."""

import random
import sys
import threading

import pytest

from repro.errors import QueryError
from repro.obs.prometheus import parse_exposition
from repro.service import ResultCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get(("a",), generation=1) is None
        cache.put(("a",), [1, 2, 3], generation=1)
        assert cache.get(("a",), generation=1) == [1, 2, 3]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(QueryError):
            ResultCache(capacity=0)

    def test_size_gauge_reads_the_live_entry_count(self):
        cache = ResultCache(capacity=2)
        (size,) = [family for family in cache.registry.collect()
                   if family.name == "repro_cache_size"]
        assert size.values() == {(): 0.0}
        for index in range(3):
            cache.put((index,), index, generation=0)
        assert size.values() == {(): 2.0}


class TestLru:
    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), 1, generation=0)
        cache.put(("b",), 2, generation=0)
        cache.get(("a",), generation=0)   # refresh "a"
        cache.put(("c",), 3, generation=0)  # evicts "b"
        assert cache.get(("b",), generation=0) is None
        assert cache.get(("a",), generation=0) == 1
        assert cache.get(("c",), generation=0) == 3
        assert cache.stats.evictions == 1

    def test_updating_a_key_refreshes_it_without_an_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), 1, generation=0)
        cache.put(("b",), 2, generation=0)
        cache.put(("a",), 10, generation=0)  # update: "a" is now the newest
        cache.put(("c",), 3, generation=0)   # evicts "b", not "a"
        assert cache.get(("a",), generation=0) == 10
        assert cache.get(("b",), generation=0) is None
        assert cache.stats.evictions == 1

    def test_a_one_pass_scan_evicts_a_hit_entry(self):
        cache = ResultCache(capacity=4)
        cache.put(("hot",), 1, generation=0)
        cache.get(("hot",), generation=0)
        for index in range(4):
            cache.put((f"scan{index}",), index, generation=0)
        assert cache.get(("hot",), generation=0) is None
        assert len(cache) == 4

    def test_capacity_one_keeps_the_latest_entry(self):
        cache = ResultCache(capacity=1)
        cache.put(("a",), 1, generation=0)
        assert cache.get(("a",), generation=0) == 1
        cache.put(("b",), 2, generation=0)
        assert cache.get(("b",), generation=0) == 2
        assert len(cache) == 1
        assert cache.stats.evictions == 1


class TestGenerationInvalidation:
    def test_stale_generation_is_a_miss(self):
        cache = ResultCache(capacity=4)
        cache.put(("a",), "old", generation=1)
        assert cache.get(("a",), generation=2) is None
        assert cache.stats.invalidations == 1
        # the stale entry is gone, a fresh one can be stored
        cache.put(("a",), "new", generation=2)
        assert cache.get(("a",), generation=2) == "new"

    def test_current_generation_still_hits(self):
        cache = ResultCache(capacity=4)
        cache.put(("a",), "value", generation=7)
        assert cache.get(("a",), generation=7) == "value"
        assert cache.stats.invalidations == 0

    def test_an_entry_from_another_generation_is_dropped_either_way(self):
        # A lookup that read an older generation than the writer's (a
        # compaction raced it) cannot use the entry, and drops it too.
        cache = ResultCache(capacity=4)
        cache.put(("a",), "newer", generation=5)
        assert cache.get(("a",), generation=4) is None
        assert len(cache) == 0
        assert (cache.stats.invalidations, cache.stats.misses) == (1, 1)


def test_concurrent_counts_are_not_lost():
    """8 threads of get/put at one generation: every count exact, on both faces.

    Every put stores a key no thread stored before, so each adds one entry
    and the evictions are exactly the puts the cache no longer holds.
    """
    cache = ResultCache(capacity=16)
    threads_, rounds = 8, 1_500

    def worker(seed):
        rng = random.Random(seed)
        for step in range(rounds):
            cache.put((seed, step), step, 0)
            # A recent key of this thread's: a hit unless the others evicted it.
            cache.get((seed, step - rng.randrange(8)), 0)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(threads_)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in workers)

    stats = cache.stats
    assert stats.hits + stats.misses == threads_ * rounds
    assert stats.hits and stats.misses
    assert stats.invalidations == 0
    assert stats.evictions == threads_ * rounds - len(cache)
    exposition = {name: family.samples[0].value
                  for name, family in parse_exposition(cache.registry.render()).items()}
    assert exposition == {
        "repro_cache_hits_total": stats.hits,
        "repro_cache_misses_total": stats.misses,
        "repro_cache_evictions_total": stats.evictions,
        "repro_cache_invalidations_total": stats.invalidations,
        "repro_cache_size": stats.size,
    }
