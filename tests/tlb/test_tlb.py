"""The set-associative TLB."""

import pytest

from repro.tlb.tlb import SetAssociativeTLB


def tiny_tlb(entries=8, assoc=2, ports=2):
    return SetAssociativeTLB(entries=entries, associativity=assoc, ports=ports)


class TestLookup:
    def test_cold_miss(self):
        tlb = tiny_tlb()
        assert not tlb.lookup(5).hit

    def test_hit_after_fill(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500)
        result = tlb.lookup(5)
        assert result.hit and result.pfn == 500

    def test_counters_and_miss_rate(self):
        tlb = tiny_tlb()
        tlb.lookup(5)
        tlb.fill(5, 500)
        tlb.lookup(5)
        assert (tlb.hits, tlb.misses) == (1, 1)
        assert tlb.miss_rate == 0.5

    def test_probe_is_side_effect_free(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500)
        assert tlb.probe(5)
        assert not tlb.probe(6)
        assert tlb.hits == 0 and tlb.misses == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB(entries=10, associativity=4)
        with pytest.raises(ValueError):
            SetAssociativeTLB(entries=0)


class TestReplacement:
    def test_lru_eviction(self):
        tlb = tiny_tlb(entries=2, assoc=2)  # one set
        tlb.fill(0, 1)
        tlb.fill(1, 2)
        eviction = tlb.fill(2, 3)
        assert eviction.vpn == 0
        assert tlb.probe(1) and tlb.probe(2) and not tlb.probe(0)

    def test_hit_refreshes_lru(self):
        tlb = tiny_tlb(entries=2, assoc=2)
        tlb.fill(0, 1)
        tlb.fill(1, 2)
        tlb.lookup(0)
        eviction = tlb.fill(2, 3)
        assert eviction.vpn == 1

    def test_refill_same_vpn_updates_pfn(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500)
        assert tlb.fill(5, 600) is None
        assert tlb.lookup(5).pfn == 600

    def test_eviction_owner_is_last_hitter(self):
        tlb = tiny_tlb(entries=2, assoc=2)
        tlb.fill(0, 1, warp_id=3)
        tlb.lookup(0, warp_id=9)
        tlb.fill(1, 2)
        eviction = tlb.fill(2, 3)
        assert eviction.vpn == 0
        assert eviction.owner == 9

    def test_flush(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500)
        tlb.flush()
        assert tlb.resident == 0


class TestLRUDepth:
    def test_mru_hit_depth_zero(self):
        tlb = tiny_tlb(entries=4, assoc=4)
        tlb.fill(0, 1)
        assert tlb.lookup(0).lru_depth == 0

    def test_depth_counts_from_mru(self):
        tlb = tiny_tlb(entries=4, assoc=4)
        for vpn in range(4):
            tlb.fill(vpn, vpn)
        # vpn 0 is now the LRU entry of the set (depth 3).
        assert tlb.lookup(0).lru_depth == 3
        # After that hit it is MRU again.
        assert tlb.lookup(0).lru_depth == 0


class TestWarpHistory:
    def test_history_records_prior_warps(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500, warp_id=1)
        first = tlb.lookup(5, warp_id=2)
        assert first.prior_history == (1,)
        second = tlb.lookup(5, warp_id=3)
        assert second.prior_history == (2, 1)

    def test_history_bounded_to_two(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500, warp_id=1)
        for warp in (2, 3, 4):
            tlb.lookup(5, warp_id=warp)
        assert len(tlb.lookup(5, warp_id=9).prior_history) == 2

    def test_repeat_hitter_not_duplicated(self):
        tlb = tiny_tlb()
        tlb.fill(5, 500, warp_id=1)
        tlb.lookup(5, warp_id=1)
        assert tlb.lookup(5, warp_id=2).prior_history == (1,)


class TestListSets:
    """One preallocated dict per set, indexed by set number; three sets
    (not a power of two) so the index is a true modulo."""

    def test_invalidate_flush_resident_and_probe(self):
        tlb = tiny_tlb(entries=6, assoc=2)
        assert tlb.num_sets == 3 and len(tlb._sets) == 3
        for vpn in (0, 1, 2, 3, 7):
            tlb.fill(vpn, vpn + 100)
        assert [sorted(s) for s in tlb._sets] == [[0, 3], [1, 7], [2]]
        assert tlb.resident == 5
        assert tlb.probe(7) and not tlb.probe(4)
        assert tlb.invalidate(7) and not tlb.invalidate(7)
        assert tlb.resident == 4
        sets, members = tlb._sets, list(tlb._sets)
        tlb.flush()
        assert tlb._sets is sets
        assert all(a is b for a, b in zip(tlb._sets, members))
        assert tlb.resident == 0 and not tlb.lookup(0).hit


class TestWithoutHistory:
    def test_no_history_is_kept_or_reported(self):
        tlb = SetAssociativeTLB(entries=2, associativity=2, keep_history=False)
        tlb.fill(5, 500, warp_id=1)
        hit = tlb.lookup(5, warp_id=2)
        assert hit.hit and hit.pfn == 500 and hit.prior_history == ()
        assert tlb.lookup(5, warp_id=3).prior_history == ()
        tlb.fill(6, 600, warp_id=4)
        eviction = tlb.fill(7, 700, warp_id=4)
        assert eviction == (5, None)  # LRU order still holds
