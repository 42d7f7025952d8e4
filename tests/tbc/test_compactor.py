"""Dynamic warp formation (TBC and CPM-gated TLB-aware TBC)."""

from hypothesis import given, settings, strategies as st

from repro.gpu.instruction import MemoryInstruction
from repro.gpu.tbc.blocks import Region, ThreadBlock
from repro.gpu.tbc.compactor import compact_region, form_region_warps
from repro.gpu.tbc.cpm import CommonPageMatrix


def make_block(thread_paths, num_warps=3, warp_width=4):
    program = (("m",),)
    paths = {p: program for p in set(t for t in thread_paths if t is not None)}
    addresses = {
        tid: (0x1000 * (block_page(tid)),)
        for tid, p in enumerate(thread_paths)
        if p is not None
    }
    region = Region(path_programs=paths, thread_paths=tuple(thread_paths),
                    thread_addresses=addresses)
    return ThreadBlock(block_id=0, num_warps=num_warps, warp_width=warp_width,
                       regions=[region])


def block_page(tid, warp_width=4):
    # Threads of the same warp access the same page.
    return (tid // warp_width) + 1


class TestBaselineCompaction:
    def test_full_block_single_path_compacts_to_original_count(self):
        block = make_block([0] * 12)
        groups = compact_region(block, block.regions[0])
        assert len(groups) == 3  # lane constraint: one thread per lane

    def test_figure19_shape(self):
        # 3 warps of 4 threads; half diverge each way -> TBC packs each
        # path into fewer warps than stack's one-per-(warp, path).
        # Divergence patterns differ per warp, so threads from
        # different warps fill each other's idle lanes.
        paths = [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1]
        block = make_block(paths)
        groups = compact_region(block, block.regions[0])
        assert len(groups) < 6

    def test_lane_constraint_respected(self):
        block = make_block([0] * 12)
        for group in compact_region(block, block.regions[0]):
            lanes = [block.lane(tid) for tid in group.threads]
            assert len(lanes) == len(set(lanes))

    def test_all_threads_covered_exactly_once(self):
        paths = [0, 1, 0, 1] * 3
        block = make_block(paths)
        groups = compact_region(block, block.regions[0])
        seen = [tid for g in groups for tid in g.threads]
        assert sorted(seen) == list(range(12))


class TestCPMGating:
    def test_unsaturated_cpm_prevents_mixing(self):
        block = make_block([0] * 12)
        cpm = CommonPageMatrix(num_warps=8, counter_bits=1)
        groups = compact_region(block, block.regions[0], cpm=cpm)
        for group in groups:
            warps = {block.original_warp(tid) for tid in group.threads}
            assert len(warps) == 1

    def test_saturated_pair_may_mix(self):
        block = make_block([0, None, None, None, None, 0, None, None] + [None] * 4)
        cpm = CommonPageMatrix(num_warps=8, counter_bits=1)
        cpm.update(0, [1])
        groups = compact_region(block, block.regions[0], cpm=cpm)
        assert len(groups) == 1
        warps = {block.original_warp(tid) for tid in groups[0].threads}
        assert warps == {0, 1}


class TestTraceMaterialization:
    def test_stack_mode_traces(self):
        block = make_block([0, 1, 0, 1] * 3)
        traces = form_region_warps(block, 0, mode="stack")
        assert len(traces) == 6
        for trace in traces:
            instr = trace.instructions[0]
            assert isinstance(instr, MemoryInstruction)
            assert instr.origins is not None

    def test_tbc_mode_addresses_follow_threads(self):
        block = make_block([0] * 12)
        traces = form_region_warps(block, 0, mode="tbc")
        # Lane l of each dynamic warp carries that thread's own address.
        for trace in traces:
            instr = trace.instructions[0]
            for lane, addr in enumerate(instr.addresses):
                if addr is not None:
                    origin = instr.origins[lane]
                    assert addr == 0x1000 * (origin + 1)

    def test_formed_warps_share_instruction_parts(self):
        """A formed warp's memory instructions hold one interned origins
        tuple, and compute instructions of one latency are one object:
        the TBC trace memo's footprint depends on it."""
        program = (("c", 3), ("m",), ("c", 3), ("m",))
        region = Region(
            path_programs={0: program},
            thread_paths=(0,) * 12,
            thread_addresses={tid: (0x1000 * tid, 0x2000 * tid) for tid in range(12)},
        )
        block = ThreadBlock(block_id=0, num_warps=3, warp_width=4, regions=[region])
        traces = form_region_warps(block, 0, mode="tbc")
        computes = {
            id(instr)
            for trace in traces
            for instr in trace.instructions
            if not isinstance(instr, MemoryInstruction)
        }
        assert len(computes) == 1
        for trace in traces:
            first, second = trace.instructions[1], trace.instructions[3]
            assert first.origins is second.origins

    def test_equal_formed_instructions_are_one_object(self):
        """Two formed warps with equal lanes and origins hold one
        memory instruction object, across regions and formations."""
        program = (("m",),)
        addresses = {tid: (0x1000 * (tid // 4 + 1),) for tid in range(12)}
        regions = [
            Region(
                path_programs={0: program},
                thread_paths=(0,) * 12,
                thread_addresses=addresses,
            )
            for _ in range(2)
        ]
        block = ThreadBlock(block_id=0, num_warps=3, warp_width=4, regions=regions)
        first = form_region_warps(block, 0, mode="tbc")
        second = form_region_warps(block, 1, mode="tbc")
        assert first[0] is not second[0]
        for a, b in zip(first, second):
            assert a.instructions[0] == b.instructions[0]
            assert a.instructions[0] is b.instructions[0]

    def test_tlb_tbc_requires_cpm(self):
        block = make_block([0] * 12)
        try:
            form_region_warps(block, 0, mode="tlb-tbc", cpm=None)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([0, 1, None]), min_size=12, max_size=12))
def test_compaction_partitions_threads(thread_paths):
    if not any(p is not None for p in thread_paths):
        return
    block = make_block(thread_paths)
    groups = compact_region(block, block.regions[0])
    seen = sorted(tid for g in groups for tid in g.threads)
    expected = sorted(
        tid for tid, p in enumerate(thread_paths) if p is not None
    )
    assert seen == expected
    for group in groups:
        lanes = [block.lane(tid) for tid in group.threads]
        assert len(lanes) == len(set(lanes))
        paths = {thread_paths[tid] for tid in group.threads}
        assert len(paths) == 1
