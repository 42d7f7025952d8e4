"""The engine contract: event == cycle, byte for byte.

Each golden pin runs one (config, workload) cell — shrunk versions of
the Figure 2 and Figure 11 machines, the same matrix the snapshot
resume tests pin — under both engines and asserts the serialized
results are identical (``canonical_json``).  The observed variants
repeat the pin with the event tracer, the phase profiler, and the
causal span recorder enabled (alone and together): the event engine
emits instrumentation natively from its own next-event loop (no
cycle-loop fallback), and the contract must hold on every path.

``fig02-tbc`` and ``fig02-tlb-tbc`` are regression pins for warp-id
aliasing: TBC compaction can field two *live* warps with the same
hardware warp id, where every stock scheduler breaks the tie by
candidate-list position — an engine that reorders its ready list
diverges on exactly these cells.

The remaining pins each exercise one branch of the event engine's
memory path: the TLB-aware schedulers' hooks (TCWS's LRU depth,
TA-CCWS's miss weight), greedy-then-oldest through its real
``select()``, a non-blocking TLB with a serial cache stage, seeded
fault injection, demand paging, and a non-power-of-two L1 that takes
the core's own memory path.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from repro.api import simulate
from repro.core import presets
from repro.core.config import CacheConfig, GPUConfig, SchedulerConfig, TraceConfig
from repro.faults.config import FaultConfig
from repro.obs.spans import SpanRecorder, record_spans
from repro.prof import profiler

_TINY = dict(num_cores=1, warps_per_core=8, warp_width=8)


def _preset(name: str, **overrides) -> GPUConfig:
    merged = dict(_TINY)
    merged.update(overrides)
    return GPUConfig.preset(name, **merged)


#: name -> (config, workload, form)
GOLDENS = {
    # Figure 2: the naive-TLB degradation matrix.
    "fig02-no-tlb": (_preset("no_tlb"), "bfs", None),
    "fig02-naive": (_preset("naive", ports=3), "bfs", None),
    "fig02-ccws": (presets.with_ccws(_preset("naive", ports=3)), "kmeans", None),
    "fig02-tbc": (
        presets.with_tbc(_preset("naive", ports=3, warmup_instructions=0), "tbc"),
        "bfs",
        "blocks",
    ),
    "fig02-tlb-tbc": (
        presets.with_tbc(
            _preset("naive", ports=3, warmup_instructions=0), "tlb-tbc"
        ),
        "bfs",
        "blocks",
    ),
    # Figure 11: walker pools vs the augmented walker.
    "fig11-ptw4": (presets.multi_ptw_tlb(4, **_TINY), "kmeans", None),
    "fig11-aug": (_preset("augmented"), "bfs", None),
    # Figures 16-17: the TLB-aware schedulers' memory-side hooks.
    "fig16-ta-ccws": (
        presets.with_ta_ccws(_preset("naive", ports=3), tlb_miss_weight=4),
        "kmeans",
        None,
    ),
    "fig17-tcws": (presets.with_tcws(_preset("naive", ports=3)), "bfs", None),
    "gto": (
        _preset("naive", ports=3, scheduler=SchedulerConfig(kind="gto")),
        "bfs",
        None,
    ),
    # Figure 7's first step: non-blocking TLB, serial cache stage.
    "hit-under-miss": (_preset("hit_under_miss"), "bfs", None),
    "faults-injected": (
        _preset(
            "naive",
            ports=3,
            faults=FaultConfig(
                enabled=True,
                seed=7,
                tlb_shootdown_rate=0.02,
                tlb_invalidate_rate=0.05,
                ptw_error_rate=0.01,
            ),
        ),
        "bfs",
        None,
    ),
    "demand-paging": (
        _preset(
            "augmented",
            faults=FaultConfig(
                enabled=True, demand_paging=True, minor_fraction=0.5
            ),
        ),
        "bfs",
        None,
    ),
    # 48 KB / 128 B / 8-way = 48 sets: no shift/mask set index.
    "l1-48k": (
        _preset("naive", ports=3, cache=CacheConfig(l1_bytes=48 * 1024)),
        "bfs",
        None,
    ),
}


def _run(
    config: GPUConfig,
    workload: str,
    form,
    engine: str,
    traced: bool = False,
    profiled: bool = False,
    spanned: bool = False,
) -> str:
    if traced:
        config = dataclasses.replace(
            config,
            trace=TraceConfig(
                enabled=True, ring_capacity=4096, interval_cycles=250
            ),
        )
    prof_guard = profiler.profile() if profiled else contextlib.nullcontext()
    span_guard = (
        record_spans(SpanRecorder(keep_slowest=5))
        if spanned
        else contextlib.nullcontext()
    )
    with prof_guard, span_guard:
        result = simulate(
            config=config, workload=workload, form=form, engine=engine
        )
    return result.canonical_json()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_event_matches_cycle(name):
    config, workload, form = GOLDENS[name]
    assert _run(config, workload, form, "event") == _run(
        config, workload, form, "cycle"
    )


@pytest.mark.parametrize(
    "name",
    ["fig02-naive", "fig02-tbc", "fig11-aug", "fig17-tcws", "faults-injected"],
)
@pytest.mark.parametrize(
    "traced,profiled,spanned",
    [
        (True, False, False),
        (False, True, False),
        (False, False, True),
        (True, True, True),
    ],
    ids=["traced", "profiled", "spanned", "all-observers"],
)
def test_event_matches_cycle_under_observation(name, traced, profiled, spanned):
    config, workload, form = GOLDENS[name]
    kwargs = dict(traced=traced, profiled=profiled, spanned=spanned)
    assert _run(config, workload, form, "event", **kwargs) == _run(
        config, workload, form, "cycle", **kwargs
    )
