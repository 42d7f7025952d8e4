"""Seeded differential fuzz: random machines, both engines, one answer.

Twenty seeded (config, workload) draws over the preset space — TLB
geometry, port counts, schedulers (including CCWS and both TBC modes),
warp counts, address-stream shapes — each run under the cycle and
event engines.  Twenty more draw the policies that run a real
``select()`` (GTO, TA-CCWS, TCWS, and every non-round-robin policy in
TBC block form under a blocking TLB), with cutoffs low enough to
throttle: there the compute-only candidate pool of a blocked TLB,
TBC's aliased warp ids and the policy's choice meet.  The full
serialized result *and* the aggregated core statistics must match
exactly.  Any divergence is an engine bug by definition: the cycle
engine is the reference oracle.
"""

from __future__ import annotations

import random
import sys

import pytest

from helpers import small_workload

from repro.api import simulate
from repro.core import presets
from repro.core.config import CacheConfig, GPUConfig, SchedulerConfig

assert "helpers" in sys.modules  # conftest puts tests/ on sys.path

SEEDS = list(range(20))
SCHEDULER_SEEDS = list(range(20, 40))

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


def _draw_workload(rng: random.Random):
    return small_workload(
        seed=rng.randrange(1 << 16),
        instructions_per_warp=rng.choice([10, 20, 30]),
        shared_fraction=rng.choice([0.0, 0.4, 0.8]),
        cold_fraction=rng.choice([0.0, 0.1, 0.3]),
        page_div_mean=rng.choice([1.0, 2.0, 4.0]),
        page_div_max=4,
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


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(seed):
    _assert_engines_agree(*_draw(seed))


@pytest.mark.parametrize("seed", SCHEDULER_SEEDS)
def test_engines_agree_under_select_policies(seed):
    _assert_engines_agree(*_draw_scheduled(seed))
