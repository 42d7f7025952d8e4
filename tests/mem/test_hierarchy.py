"""The composed L1 -> L2 -> DRAM path."""

from repro.mem.hierarchy import CoreMemory, SharedMemory


def make_system(**kwargs):
    shared = SharedMemory(num_channels=1, **kwargs)
    return shared, CoreMemory(shared, mshr_entries=4)


class TestSharedLevels:
    def test_l2_hit_after_fill(self):
        shared, _ = make_system()
        first = shared.access_line(0, 0)
        again = shared.access_line(0, first.ready_time)
        assert first.level == "dram"
        assert again.level == "l2"
        assert again.ready_time < first.ready_time + 100

    def test_ptw_refs_counted(self):
        shared, _ = make_system()
        shared.walk_load(0, 0)
        shared.walk_load(0, 500)
        assert shared.ptw_refs == 2
        assert shared.ptw_l2_hits == 1
        assert shared.ptw_l2_hit_rate == 0.5

    def test_ptw_priority_bypasses_data_queue(self):
        shared, _ = make_system(l2_service_interval=4)
        # Pile data requests onto the bank.
        for i in range(20):
            shared.access_line(128 * i, 0)
        # Warm a line so the PTW ref is an L2 hit, then check its
        # latency ignores the queued data burst.
        shared.access_line(0, 0)
        hits = shared.ptw_l2_hits
        ready = shared.walk_load(0, 1)
        assert shared.ptw_l2_hits == hits + 1
        assert ready <= 1 + shared.interconnect_latency + shared.l2_latency


class TestCoreMemory:
    def test_l1_hit_latency(self):
        _, core = make_system()
        fill = core.access(0, 0)
        hit = core.access(0, fill.ready_time)
        assert hit.level == "l1"
        assert hit.ready_time == fill.ready_time + core.l1_latency

    def test_mshr_merge_path(self):
        _, core = make_system()
        first = core.access(0, 0)
        # Second access to the same line while in flight: set conflict
        # evicts nothing (same line -> L1 hit path is bypassed because
        # the line was already filled at access time), so force a
        # different address mapping to the same line... simplest: the
        # merge path triggers when the line missed L1 but is in the
        # MSHRs; evict it from L1 first.
        core.l1.invalidate(0)
        merged = core.access(0, 1)
        assert merged.level == "l1-mshr"
        assert merged.ready_time == first.ready_time

    def test_miss_latency_accounting(self):
        _, core = make_system()
        result = core.access(0, 0)
        assert core.l1_misses == 1
        assert core.average_miss_latency == result.ready_time

    def test_eviction_info_propagates(self):
        shared = SharedMemory(num_channels=1)
        core = CoreMemory(shared, l1_bytes=256, l1_associativity=1)
        core.access(0, 0, warp_id=3)
        # 256-byte, 1-way, 128B lines -> 2 sets; line 256 maps to set 0.
        result = core.access(256, 10, warp_id=5)
        assert result.evicted_line == 0
        assert result.evicted_warp == 3
