"""The shader core's issue loop and memory unit."""

from helpers import small_config, small_workload

from repro.core.config import PTWConfig, TLBConfig
from repro.core.simulator import Simulator


def run(config, workload=None, form=None):
    wl = workload or small_workload()
    work = wl.build(config, form=form)
    sim = Simulator(config, work, wl.name)
    return sim, sim.run()


class TestExecution:
    def test_all_instructions_retire(self):
        config = small_config(tlb=TLBConfig(enabled=False))
        _, result = run(config)
        expected = 8 * 20  # warps x instructions per warp
        assert result.stats.instructions == expected

    def test_cycles_positive_and_bounded(self):
        config = small_config(tlb=TLBConfig(enabled=False))
        _, result = run(config)
        assert 0 < result.cycles < 10_000_000

    def test_deterministic(self):
        config = small_config(tlb=TLBConfig(enabled=False))
        _, a = run(config)
        _, b = run(config)
        assert a.cycles == b.cycles

    def test_tlb_stats_collected(self):
        config = small_config()
        _, result = run(config)
        assert result.stats.tlb_lookups > 0
        assert result.stats.tlb_hits + result.stats.tlb_misses == result.stats.tlb_lookups
        assert result.stats.walks > 0

    def test_page_divergence_tracked(self):
        config = small_config()
        _, result = run(config)
        assert result.stats.average_page_divergence >= 1.0
        assert result.stats.page_divergence_max <= 8  # warp width

    def test_no_tlb_beats_naive_tlb(self):
        base_cfg = small_config(tlb=TLBConfig(enabled=False))
        _, base = run(base_cfg)
        naive_cfg = small_config(tlb=TLBConfig(entries=16, associativity=4, ports=3))
        _, naive = run(naive_cfg)
        assert naive.cycles > base.cycles

    def test_warmup_reduces_measured_cycles(self):
        full = small_config()
        _, a = run(full)
        warm = small_config(warmup_instructions=5)
        _, b = run(warm)
        assert b.cycles < a.cycles
        assert b.stats.instructions < a.stats.instructions


class TestBlockingSemantics:
    def test_blocking_gates_memory_issue(self):
        blocking = small_config(
            tlb=TLBConfig(entries=16, associativity=4, ports=4, blocking=True)
        )
        _, blocked = run(blocking)
        hum = small_config(
            tlb=TLBConfig(
                entries=16, associativity=4, ports=4,
                blocking=False, hit_under_miss=True,
            )
        )
        _, nonblocked = run(hum)
        # A blocking TLB visibly stalls warps behind outstanding misses;
        # the non-blocking TLB never does.
        assert blocked.stats.tlb_blocked_wait_cycles > 0
        assert nonblocked.stats.tlb_blocked_wait_cycles == 0

    def test_scheduled_walker_not_slower(self):
        naive = small_config(
            tlb=TLBConfig(entries=16, associativity=4, ports=4, blocking=False,
                          hit_under_miss=True, cache_overlap=True),
        )
        _, a = run(naive)
        sched = small_config(
            tlb=TLBConfig(entries=16, associativity=4, ports=4, blocking=False,
                          hit_under_miss=True, cache_overlap=True),
            ptw=PTWConfig(count=1, scheduled=True),
        )
        _, b = run(sched)
        assert b.cycles <= a.cycles


class TestTBCExecution:
    def test_block_mode_runs_all_regions(self):
        config = small_config()
        sim, result = run(config, form="blocks")
        # 2 blocks of 3 regions each on one core.
        assert result.stats.regions_executed == 6
        assert result.stats.warp_fetches > 0

    def test_tbc_forms_fewer_or_equal_warps(self):
        from repro.core.config import TBCConfig

        stack_cfg = small_config(tlb=TLBConfig(enabled=False))
        _, stack = run(stack_cfg, form="blocks")
        tbc_cfg = small_config(
            tlb=TLBConfig(enabled=False), tbc=TBCConfig(mode="tbc")
        )
        _, tbc = run(tbc_cfg, form="blocks")
        assert tbc.stats.warp_fetches <= stack.stats.warp_fetches

    def test_tlb_tbc_requires_no_extra_setup(self):
        from repro.core.config import TBCConfig

        config = small_config(tbc=TBCConfig(mode="tlb-tbc"))
        sim, result = run(config, form="blocks")
        assert sim.cores[0].cpm is not None
        assert result.cycles > 0


class TestTLBHistory:
    """A TLB entry's warp history is kept only where something reads
    it: the Common Page Matrix (TLB-aware TBC) and TCWS's eviction hook.
    Both engines follow the core's decision."""

    @staticmethod
    def _machines():
        from repro.core import presets

        geom = dict(num_cores=1, warps_per_core=8, warp_width=8)
        augmented = presets.augmented_tlb(**geom)
        return [
            ("augmented", augmented, None, False),
            ("naive", presets.naive_tlb(**geom), None, False),
            ("ccws", presets.with_ccws(augmented), None, False),
            ("ta-ccws", presets.with_ta_ccws(augmented), None, False),
            ("tbc", presets.with_tbc(augmented), "blocks", False),
            ("tcws", presets.with_tcws(augmented), None, True),
            ("tlb-tbc", presets.with_tbc(augmented, "tlb-tbc"), "blocks", True),
        ]

    def test_only_cpm_and_tcws_cores_keep_history(self):
        for label, config, form, keeps in self._machines():
            histories = {}
            for engine in ("cycle", "event"):
                sim, result = run(config.with_(engine=engine), form=form)
                tlb = sim.cores[0].tlb
                assert tlb.keep_history is keeps, label
                histories[engine] = (
                    result.canonical_json(),
                    {
                        vpn: tuple(entry.history)
                        for tlb_set in tlb._sets
                        for vpn, entry in tlb_set.items()
                    },
                )
            assert histories["event"] == histories["cycle"], label
            kept = [h for h in histories["cycle"][1].values() if h]
            assert bool(kept) is keeps, label
