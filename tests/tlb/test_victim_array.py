"""Victim tag arrays (CCWS / TCWS)."""

import pytest

from repro.tlb.victim_array import VictimTagArray


class TestVTA:
    def test_probe_empty_misses(self):
        vta = VictimTagArray(num_warps=4)
        assert not vta.probe(0, 123)

    def test_insert_then_probe_hits(self):
        vta = VictimTagArray(num_warps=4)
        vta.insert(0, 123)
        assert vta.probe(0, 123)

    def test_arrays_are_per_warp(self):
        vta = VictimTagArray(num_warps=4)
        vta.insert(0, 123)
        assert not vta.probe(1, 123)

    def test_capacity_lru(self):
        vta = VictimTagArray(num_warps=1, entries_per_warp=2, associativity=2)
        vta.insert(0, 0)
        vta.insert(0, 2)
        vta.insert(0, 4)  # evicts tag 0
        assert not vta.probe(0, 0)
        assert vta.probe(0, 2) and vta.probe(0, 4)

    def test_hit_rate(self):
        vta = VictimTagArray(num_warps=1)
        vta.insert(0, 1)
        vta.probe(0, 1)
        vta.probe(0, 2)
        assert vta.hit_rate == 0.5

    def test_storage_comparison(self):
        # TCWS uses half the tags of CCWS (paper Section 7.2).
        ccws = VictimTagArray(num_warps=48, entries_per_warp=16)
        tcws = VictimTagArray(num_warps=48, entries_per_warp=8)
        assert tcws.storage_tags() * 2 == ccws.storage_tags()

    def test_degenerates_to_fully_associative(self):
        vta = VictimTagArray(num_warps=1, entries_per_warp=2, associativity=8)
        assert vta.num_sets == 1

    def test_flush(self):
        vta = VictimTagArray(num_warps=2)
        vta.insert(0, 1)
        vta.flush()
        assert not vta.probe(0, 1)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            VictimTagArray(num_warps=0)
        with pytest.raises(ValueError):
            VictimTagArray(num_warps=1, entries_per_warp=6, associativity=4)


class TestListSets:
    def test_three_sets_per_warp_flush_in_place(self):
        vta = VictimTagArray(num_warps=2, entries_per_warp=6, associativity=2)
        assert vta.num_sets == 3
        for tag in (0, 3, 6):  # one set: 6 evicts 0
            vta.insert(1, tag)
        vta.insert(1, 4)
        assert [sorted(s) for s in vta._arrays[1]] == [[3, 6], [4], []]
        assert not vta.probe(1, 0) and vta.probe(1, 3) and vta.probe(1, 4)
        assert not vta.probe(0, 3)  # another warp's array
        arrays = vta._arrays
        members = [list(warp_sets) for warp_sets in arrays]
        vta.flush()
        assert vta._arrays is arrays
        assert all(
            a is b
            for warp_sets, kept in zip(vta._arrays, members)
            for a, b in zip(warp_sets, kept)
        )
        assert not vta.probe(1, 3)
        vta.insert(1, 3)
        assert vta.probe(1, 3)
