"""Seeded differential fuzz: random machines, both engines, one answer.

Twenty seeded (config, workload) draws over the preset space — TLB
geometry, port counts, schedulers (including CCWS and both TBC modes),
warp counts, address-stream shapes — each run under the cycle and
event engines.  Twenty more draw the policies that run a real
``select()`` (GTO, TA-CCWS, TCWS, and every non-round-robin policy in
TBC block form under a blocking TLB), with cutoffs low enough to
throttle: there the compute-only candidate pool of a blocked TLB,
TBC's aliased warp ids and the policy's choice meet.  Twenty more draw
the memory geometry the event engine inlines: MSHR file size, L1
latency, a small L1 and L2, one to four L2 banks and the bank service
interval.  Twenty more draw the translation stage: every blocking and
non-blocking TLB preset and walker pools, small TLBs, one to 32 TLB
MSHRs, one-page instructions, injected shootdowns and invalidations,
and TCWS or TLB-aware TBC on top.  The full serialized result *and* the
aggregated core statistics must match exactly, and for the geometry
draws so must every L1, MSHR, L2-bank and DRAM counter.  Any divergence
is an engine bug by definition: the cycle engine is the reference
oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import sys

import pytest

from helpers import small_workload

from repro.api import simulate
from repro.core import presets
from repro.core.config import CacheConfig, DRAMConfig, GPUConfig, SchedulerConfig
from repro.core.simulator import Simulator
from repro.faults.config import FaultConfig
from repro.workloads.base import TIMING_MISS_SCALE

assert "helpers" in sys.modules  # conftest puts tests/ on sys.path

SEEDS = list(range(20))
SCHEDULER_SEEDS = list(range(20, 40))
GEOMETRY_SEEDS = list(range(40, 60))
TRANSLATION_SEEDS = list(range(60, 80))

_PRESETS = ("no_tlb", "naive", "blocking", "augmented", "ideal")


def _draw(seed: int):
    """One seeded (config, workload, form) draw."""
    rng = random.Random(0xE7C1 + seed)
    name = rng.choice(_PRESETS)
    overrides = dict(
        num_cores=1,
        warps_per_core=rng.choice([4, 8]),
        warp_width=8,
    )
    if name == "naive":
        overrides["ports"] = rng.choice([1, 2, 3, 4])
    config = GPUConfig.preset(name, **overrides)
    form = None
    sched = rng.random()
    if sched < 0.25:
        config = presets.with_ccws(config)
    elif sched < 0.5:
        config = config.with_(warmup_instructions=0)
        config = presets.with_tbc(config, rng.choice(["tbc", "tlb-tbc"]))
        form = "blocks"
    return config, _draw_workload(rng), form


def _draw_workload(rng: random.Random, page_div_max: int = 4):
    return small_workload(
        seed=rng.randrange(1 << 16),
        instructions_per_warp=rng.choice([10, 20, 30]),
        shared_fraction=rng.choice([0.0, 0.4, 0.8]),
        cold_fraction=rng.choice([0.0, 0.1, 0.3]),
        page_div_mean=rng.choice([1.0, 2.0, 4.0]),
        page_div_max=page_div_max,
    )


def _draw_scheduled(seed: int):
    """One seeded draw under a policy with a real ``select()``."""
    rng = random.Random(0x5C4ED + seed)
    overrides = dict(
        num_cores=1,
        warps_per_core=rng.choice([4, 8]),
        warp_width=8,
    )
    if rng.random() < 0.5:
        config = GPUConfig.preset(
            rng.choice(("naive", "blocking")), warmup_instructions=0, **overrides
        )
        config = presets.with_tbc(config, rng.choice(["tbc", "tlb-tbc"]))
        kind = rng.choice(("gto", "ccws", "ta-ccws", "tcws"))
        form = "blocks"
    else:
        config = GPUConfig.preset(rng.choice(_PRESETS), **overrides)
        kind = rng.choice(("gto", "ta-ccws", "tcws"))
        form = None
    if kind == "gto":
        scheduler = SchedulerConfig(kind=kind)
    else:
        scheduler = SchedulerConfig(
            kind=kind,
            lls_cutoff=rng.choice([1, 2, 8]),
            min_active_warps=1,
            score_halflife=rng.choice([256, 4096]),
        )
    # A 2 KB L1 evicts within a few instructions, so the cache-line
    # VTAs hit and the pool throttles memory issue.
    config = config.with_(
        scheduler=scheduler, cache=CacheConfig(l1_bytes=2048, l1_associativity=4)
    )
    return config, _draw_workload(rng), form


def _assert_engines_agree(config, workload, form):
    results = {
        engine: simulate(
            config=config, workload=workload, form=form, engine=engine
        )
        for engine in ("cycle", "event")
    }
    cycle, event = results["cycle"], results["event"]
    # The aggregated core statistics, field by field...
    assert event.stats == cycle.stats, config.describe()
    # ...and the full serialized result, byte for byte.
    assert event.canonical_json() == cycle.canonical_json(), config.describe()
    return cycle


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(seed):
    _assert_engines_agree(*_draw(seed))


@pytest.mark.parametrize("seed", SCHEDULER_SEEDS)
def test_engines_agree_under_select_policies(seed):
    _assert_engines_agree(*_draw_scheduled(seed))


def _draw_geometry(seed: int):
    """One seeded draw over the L1/MSHR/L2-bank/DRAM geometry."""
    rng = random.Random(0x6E0 + seed)
    config = GPUConfig.preset(
        rng.choice(_PRESETS),
        num_cores=1,
        warps_per_core=rng.choice([4, 8]),
        warp_width=8,
        cache=CacheConfig(
            l1_bytes=rng.choice([1024, 2048]),
            l1_associativity=rng.choice([2, 4]),
            l1_latency=rng.choice([0, 1, 3]),
            l1_mshr_entries=rng.choice([1, 2, 4, 16]),
            l2_bytes_per_channel=rng.choice([16 * 1024, 64 * 1024]),
            l2_service_interval=rng.choice([1, 2]),
        ),
        # One core: every channel, and so every L2 bank, is its own.
        dram=DRAMConfig(num_channels=rng.choice([1, 2, 4])),
    )
    return config, _draw_workload(rng)


def _memory_counters(simulator: Simulator) -> tuple:
    """Every counter of the core's L1, MSHR file, L2 banks and DRAM."""
    memory = simulator.cores[0].memory
    shared = memory.shared
    mshrs = memory.mshrs
    return (
        (memory.l1.hits, memory.l1.misses),
        (memory.l1_hits, memory.l1_misses, memory.total_miss_latency),
        (mshrs.merges, mshrs.stalls, mshrs.allocations),
        (shared.l2_hits, shared.l2_misses, shared.ptw_refs, shared.ptw_l2_hits),
        tuple((bank.hits, bank.misses) for bank in shared.l2_banks),
        tuple(
            (channel.requests, channel.total_queue_delay)
            for channel in shared.dram.channels
        ),
    )


@functools.lru_cache(maxsize=None)
def _geometry_counters(seed: int) -> tuple:
    """Run one geometry draw on both engines, assert they agree, and
    return the cycle engine's memory counters."""
    config, workload = _draw_geometry(seed)
    runs = {}
    for engine in ("cycle", "event"):
        machine = config.with_(engine=engine)
        work = workload.build(machine, miss_scale=TIMING_MISS_SCALE)
        simulator = Simulator(machine, work, workload.name)
        runs[engine] = (simulator.run(), _memory_counters(simulator))
    (cycle, cycle_counters), (event, event_counters) = runs["cycle"], runs["event"]
    assert event.stats == cycle.stats, config.describe()
    assert event.canonical_json() == cycle.canonical_json(), config.describe()
    assert event_counters == cycle_counters, config.describe()
    return cycle_counters


@pytest.mark.parametrize("seed", GEOMETRY_SEEDS)
def test_engines_agree_on_memory_geometry(seed):
    _geometry_counters(seed)


def test_geometry_draws_reach_every_mshr_and_bank_branch():
    """Together the geometry draws merge into in-flight misses, find
    the MSHR file full, and spread lines over more than one L2 bank."""
    counters = [_geometry_counters(seed) for seed in GEOMETRY_SEEDS]
    assert sum(mshr[0] for _, _, mshr, *_ in counters) > 0  # merges
    assert sum(mshr[1] for _, _, mshr, *_ in counters) > 0  # full-file stalls
    assert any(
        sum(1 for hits, misses in banks if hits + misses) > 1
        for *_, banks, _ in counters
    )


_TRANSLATION_PRESETS = (
    "naive",
    "blocking",
    "hit_under_miss",
    "non_blocking",
    "augmented",
    "multi_ptw",
)


def _draw_translation(seed: int):
    """One seeded draw over the translation stage: TLB design point,
    size and MSHR count, one-page instructions, fault injection."""
    # Misses that merge into an in-flight walk are rare (about one draw
    # in twenty), so the salt is one whose draws reach every path
    # test_translation_draws_reach_every_miss_path names.
    rng = random.Random(0x7A39 + seed)
    overrides = dict(
        num_cores=1,
        warps_per_core=rng.choice([4, 8]),
        warp_width=8,
    )
    name = rng.choice(_TRANSLATION_PRESETS)
    if name == "multi_ptw":
        config = presets.multi_ptw_tlb(rng.choice([2, 4]), **overrides)
    elif name == "naive":
        config = GPUConfig.preset(name, ports=rng.choice([1, 2, 3, 4]), **overrides)
    else:
        config = GPUConfig.preset(name, **overrides)
    tlb = dataclasses.replace(
        config.tlb,
        entries=rng.choice([8, 16, 32, 128]),
        associativity=4,
        mshr_entries=rng.choice([1, 2, 32]),
    )
    config = config.with_(tlb=tlb)
    if rng.random() < 1 / 3:
        config = config.with_(
            faults=FaultConfig(
                enabled=True,
                seed=rng.randrange(1 << 16),
                tlb_shootdown_rate=rng.choice([0.02, 0.05]),
                tlb_invalidate_rate=rng.choice([0.05, 0.1]),
            )
        )
    form = None
    sched = rng.random()
    if sched < 0.25:
        config = presets.with_tcws(config)
    elif sched < 0.5:
        config = config.with_(warmup_instructions=0)
        config = presets.with_tbc(config, "tlb-tbc")
        form = "blocks"
    page_div_max = rng.choice([1, 4])
    return config, _draw_workload(rng, page_div_max), form, page_div_max


@functools.lru_cache(maxsize=None)
def _translation_stats(seed: int):
    """Run one translation draw on both engines, assert they agree, and
    return its one-page flag and the cycle engine's core statistics."""
    config, workload, form, page_div_max = _draw_translation(seed)
    cycle = _assert_engines_agree(config, workload, form)
    return page_div_max == 1, cycle.stats


@pytest.mark.parametrize("seed", TRANSLATION_SEEDS)
def test_engines_agree_on_translation(seed):
    _translation_stats(seed)


def test_translation_draws_reach_every_miss_path():
    """Together the translation draws hit and miss on one-page
    instructions, merge misses into in-flight walks, find the TLB MSHR
    file full, shoot down and invalidate translations, and hold warps
    behind a blocking TLB."""
    draws = [_translation_stats(seed) for seed in TRANSLATION_SEEDS]
    assert any(
        one_page and stats.tlb_hits and stats.tlb_misses
        for one_page, stats in draws
    )
    assert any(stats.tlb_misses > stats.walks for _, stats in draws)
    for counter in (
        "tlb_mshr_stalls",
        "tlb_shootdowns",
        "tlb_injected_invalidations",
        "tlb_blocked_wait_cycles",
    ):
        assert sum(getattr(stats, counter) for _, stats in draws) > 0, counter
