"""Workload generator structure."""

from helpers import small_config, small_workload

from repro.gpu.instruction import ComputeInstruction, MemoryInstruction
from repro.gpu.tbc.blocks import ThreadBlock


class TestLinearForm:
    def test_shape(self):
        config = small_config()
        work = small_workload().build_linear(config)
        assert len(work) == config.num_cores
        assert len(work[0]) == config.warps_per_core
        assert all(len(t.instructions) == 20 for t in work[0])

    def test_deterministic(self):
        config = small_config()
        a = small_workload().build_linear(config)
        b = small_workload().build_linear(config)
        first_a = next(i for i in a[0][0].instructions if isinstance(i, MemoryInstruction))
        first_b = next(i for i in b[0][0].instructions if isinstance(i, MemoryInstruction))
        assert first_a.addresses == first_b.addresses

    def test_seed_changes_stream(self):
        config = small_config()
        a = small_workload(seed=1).build_linear(config)
        b = small_workload(seed=2).build_linear(config)
        mem_a = [i for i in a[0][0].instructions if isinstance(i, MemoryInstruction)]
        mem_b = [i for i in b[0][0].instructions if isinstance(i, MemoryInstruction)]
        assert any(x.addresses != y.addresses for x, y in zip(mem_a, mem_b))

    def test_alternates_compute_and_memory(self):
        config = small_config()
        trace = small_workload().build_linear(config)[0][0]
        kinds = [type(i) for i in trace.instructions]
        assert ComputeInstruction in kinds and MemoryInstruction in kinds

    def test_private_pages_disjoint_across_warps(self):
        wl = small_workload()
        pages_a = set(wl._warp_pages(0, 0, 8))
        pages_b = set(wl._warp_pages(0, 1, 8))
        assert not pages_a & pages_b

    def test_miss_scale_reduces_cold_picks(self):
        config = small_config()
        def cold_count(scale):
            work = small_workload(cold_fraction=0.5).build_linear(config, miss_scale=scale)
            count = 0
            for trace in work[0]:
                for instr in trace.instructions:
                    if isinstance(instr, MemoryInstruction):
                        count += sum(
                            1 for a in instr.addresses
                            if a is not None and a >= (1 << 31) * 4096
                        )
            return count
        assert cold_count(1.0) > cold_count(0.1)


class TestBlockForm:
    def test_shape(self):
        config = small_config()
        work = small_workload().build_blocks(config)
        assert len(work) == config.num_cores
        blocks = work[0]
        assert all(isinstance(b, ThreadBlock) for b in blocks)
        assert len(blocks) == config.warps_per_core // 4  # block_warps=4

    def test_pairs_share_page_sets(self):
        wl = small_workload()
        assert wl._pair_pages(0, 2, 8) == wl._pair_pages(0, 3, 8)
        assert wl._pair_pages(0, 0, 8) != wl._pair_pages(0, 2, 8)

    def test_build_dispatch(self):
        config = small_config()
        wl = small_workload()
        linear = wl.build(config, form="linear")
        blocks = wl.build(config, form="blocks")
        assert not isinstance(linear[0][0], ThreadBlock)
        assert isinstance(blocks[0][0], ThreadBlock)

    def test_unknown_form_rejected(self):
        config = small_config()
        try:
            small_workload().build(config, form="nope")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestBuildMemo:
    def test_memo_is_bounded(self):
        from repro.workloads import base

        config = small_config()
        wl = small_workload()
        cap = base._BUILD_CACHE_LIMIT
        for i in range(cap + 1):
            wl.build(config, form="linear", miss_scale=1.0 + i / 1024)
        assert len(base._BUILD_CACHE) <= cap
