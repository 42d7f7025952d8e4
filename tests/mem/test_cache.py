"""Set-associative cache behaviour."""

import pytest

from repro.mem.cache import SetAssociativeCache


def tiny_cache(assoc=2, sets=2):
    return SetAssociativeCache(
        size_bytes=128 * assoc * sets, line_bytes=128, associativity=assoc
    )


class TestGeometry:
    def test_paper_l1_geometry(self):
        cache = SetAssociativeCache(32 * 1024, 128, 8)
        assert cache.num_sets == 32

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(100, 128, 8)
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 128, 8)


class TestHitsAndMisses:
    def test_first_access_misses(self):
        cache = tiny_cache()
        assert not cache.access(0).hit

    def test_second_access_hits(self):
        cache = tiny_cache()
        cache.access(0)
        assert cache.access(0).hit

    def test_counters(self):
        cache = tiny_cache()
        cache.access(0)
        cache.access(0)
        cache.access(256)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.miss_rate == pytest.approx(2 / 3)

    def test_lookup_does_not_fill(self):
        cache = tiny_cache()
        assert not cache.lookup(0)
        assert not cache.lookup(0)

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(assoc=1, sets=2)
        cache.access(0)      # set 0
        cache.access(128)    # set 1
        assert cache.access(0).hit
        assert cache.access(128).hit


class TestLRU:
    def test_lru_eviction_order(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.access(0)
        cache.access(128)
        result = cache.access(256)  # evicts line 0 (LRU)
        assert result.evicted_line == 0
        assert cache.access(128).hit
        assert not cache.access(0).hit

    def test_hit_refreshes_lru(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.access(0)
        cache.access(128)
        cache.access(0)          # 0 becomes MRU
        result = cache.access(256)
        assert result.evicted_line == 128

    def test_capacity_never_exceeded(self):
        cache = tiny_cache(assoc=2, sets=2)
        for line in range(0, 128 * 50, 128):
            cache.access(line)
        assert cache.resident_lines <= 4


class TestWarpTagging:
    def test_eviction_reports_allocating_warp(self):
        cache = tiny_cache(assoc=1, sets=1)
        cache.access(0, warp_id=7)
        result = cache.access(128, warp_id=9)
        assert result.evicted_line == 0
        assert result.evicted_warp == 7

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(0)
        assert cache.invalidate(0)
        assert not cache.invalidate(0)
        assert not cache.access(0).hit

    def test_flush(self):
        cache = tiny_cache()
        cache.access(0)
        cache.flush()
        assert cache.resident_lines == 0


class TestListSets:
    """One preallocated dict per set, indexed by set number; three sets
    (not a power of two) so the index is a true modulo."""

    def test_lines_land_in_their_set(self):
        cache = tiny_cache(assoc=2, sets=3)
        assert cache.num_sets == 3 and len(cache._sets) == 3
        for line in (0, 128, 256, 384, 512):
            cache.access(line)
        assert [sorted(s) for s in cache._sets] == [[0, 384], [128, 512], [256]]
        assert cache.resident_lines == 5
        assert cache.lookup(512) and not cache.lookup(640)

    def test_invalidate_and_flush_in_place(self):
        cache = tiny_cache(assoc=2, sets=3)
        sets = cache._sets
        members = list(sets)
        for line in range(0, 6 * 128, 128):
            cache.access(line)
        assert cache.invalidate(256) and not cache.invalidate(256)
        assert cache.resident_lines == 5
        cache.flush()
        assert cache._sets is sets
        assert all(a is b for a, b in zip(cache._sets, members))
        assert cache.resident_lines == 0 and not cache.lookup(0)
        assert not cache.access(0).hit  # refills after the flush
        assert cache.lookup(0)
