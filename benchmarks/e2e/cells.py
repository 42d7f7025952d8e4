"""The benchmark's inputs: design points, cell orders, and request mixes.

Everything here is a pure function of the ``--seed`` argument, so the
controller and the processes it starts derive identical inputs without
shipping them around.  Seed 0 keeps the paper-calibrated workload specs
of :mod:`repro.workloads.registry`; any other seed derives each
``WorkloadSpec.seed`` from (seed, workload name).

The sweep design points are the machine configurations of the paper's
figures, built with :mod:`repro.core.presets` exactly as
``repro.harness.figures`` builds them; a point that two figures share
appears once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core import presets
from repro.core.config import GPUConfig
from repro.workloads.base import TIMING_MISS_SCALE, Workload, WorkloadSpec
from repro.workloads.registry import get_spec, workload_names

WORKLOADS = tuple(workload_names())


class Point(NamedTuple):
    """One machine design point of a sweep."""

    label: str
    config: Callable[[], GPUConfig]
    form: Optional[str] = None  # None (linear traces) or "blocks" (TBC)


def _preset(name: str, warmup: int = 20, **kw) -> Callable[[], GPUConfig]:
    return lambda: GPUConfig.preset(name, warmup_instructions=warmup, **kw)


def _then(base: Callable[[], GPUConfig], step: Callable) -> Callable[[], GPUConfig]:
    return lambda: step(base())


def _tbc(name: str, mode: str = "tbc", bits: int = 3) -> Callable[[], GPUConfig]:
    return _then(
        _preset(name, warmup=0),
        lambda c: presets.with_tbc(c, mode, counter_bits=bits),
    )


#: Figures 2, 6, 7, 10 and 11: TLB geometry and ports, non-blocking
#: TLBs, PTW scheduling, walker pools.  Mostly round-robin linear runs,
#: so translation and the L1 path dominate host time.
MMU_POINTS: Tuple[Point, ...] = (
    Point("no-tlb", _preset("no_tlb")),
    Point("naive-3p", _preset("naive", ports=3)),
    Point("ccws", _then(_preset("no_tlb"), presets.with_ccws)),
    Point("ccws+naive-3p", _then(_preset("naive", ports=3), presets.with_ccws)),
    Point("stack-no-tlb", _preset("no_tlb", warmup=0), "blocks"),
    Point("tbc", _tbc("no_tlb"), "blocks"),
    Point("tbc+naive-3p", _then(
        _preset("naive", warmup=0, ports=3), presets.with_tbc), "blocks"),
    *(
        Point(f"{entries}e/4p", lambda e=entries: presets.tlb_with_geometry(
            e, 4, ideal=True, warmup_instructions=20))
        for entries in (64, 128, 256, 512)
    ),
    *(
        Point(f"128e/{ports}p", lambda p=ports: presets.tlb_with_geometry(
            128, p, ideal=True, warmup_instructions=20))
        for ports in (3, 8, 32)
    ),
    Point("blocking", _preset("blocking")),
    Point("hit-under-miss", _preset("hit_under_miss")),
    Point("non-blocking", _preset("non_blocking")),
    Point("augmented", _preset("augmented")),
    Point("ideal", _preset("ideal")),
    *(
        Point(f"naive-x{n}-ptw", lambda n=n: presets.multi_ptw_tlb(
            n, warmup_instructions=20))
        for n in (2, 4, 8)
    ),
)

#: The Figure 10 design points: the slice re-run fully observed.
FIG10_LABELS = ("no-tlb", "blocking", "non-blocking", "augmented", "ideal")

#: Figures 13, 16, 17, 18, 20 and 22: CCWS, TA-CCWS, TCWS, TBC and
#: TLB-aware TBC.  The warp scheduler and the block-form compaction
#: path carry far more of the host time than in the MMU sweep.
SCHED_POINTS: Tuple[Point, ...] = (
    Point("no-tlb", _preset("no_tlb")),
    Point("blocking", _preset("blocking")),
    Point("augmented", _preset("augmented")),
    Point("ccws", _then(_preset("no_tlb"), presets.with_ccws)),
    Point("ccws+blocking", _then(_preset("blocking"), presets.with_ccws)),
    Point("ccws+augmented", _then(_preset("augmented"), presets.with_ccws)),
    *(
        Point(f"ta-ccws-{w}:1", _then(
            _preset("augmented"),
            lambda c, w=w: presets.with_ta_ccws(c, tlb_miss_weight=w)))
        for w in (1, 2, 4, 8)
    ),
    *(
        Point(f"tcws-{epw}epw", _then(
            _preset("augmented"),
            lambda c, epw=epw: presets.with_tcws(c, entries_per_warp=epw)))
        for epw in (2, 4, 8, 16)
    ),
    *(
        Point(f"tcws-lru{''.join(map(str, ws))}", _then(
            _preset("augmented"),
            lambda c, ws=ws: presets.with_tcws(c, lru_hit_weights=ws)))
        for ws in ((1, 2, 3, 4), (1, 3, 6, 9))
    ),
    Point("stack-no-tlb", _preset("no_tlb", warmup=0), "blocks"),
    Point("tbc", _tbc("no_tlb"), "blocks"),
    Point("tbc+blocking", _tbc("blocking"), "blocks"),
    Point("tbc+augmented", _tbc("augmented"), "blocks"),
    Point("blocking-blocks", _preset("blocking", warmup=0), "blocks"),
    Point("augmented-blocks", _preset("augmented", warmup=0), "blocks"),
    *(
        Point(f"tlb-tbc-{bits}b", _tbc("augmented", "tlb-tbc", bits), "blocks")
        for bits in (1, 2, 3)
    ),
)

SWEEP_POINTS: Dict[str, Tuple[Point, ...]] = {
    "mmu-sweep": MMU_POINTS,
    "sched-sweep": SCHED_POINTS,
}

#: A sweep cell: (index into the workload's points, workload name).
SweepCell = Tuple[int, str]


def candidate_specs(seed: int, name: str) -> Iterator[WorkloadSpec]:
    """Seed 0: the registry's calibrated spec.  Otherwise specs whose
    ``seed`` derives from (seed, name, attempt), attempt 0, 1, ..."""
    spec = get_spec(name)
    if seed == 0:
        yield spec
        return
    for attempt in itertools.count():
        digest = hashlib.sha256(f"{seed}/{name}/{attempt}".encode("utf-8"))
        yield dataclasses.replace(spec, seed=int(digest.hexdigest()[:8], 16))


def workload_for(seed: int, name: str) -> Workload:
    """The workload ``name`` under ``--seed``, built in both forms.

    Some derived seeds make the trace generator's Zipf draw overflow a
    float; such a spec is skipped for the next candidate, which is just
    as random, so every run's inputs build.
    """
    geometry = GPUConfig()  # every design point keeps the default geometry
    for spec in candidate_specs(seed, name):
        workload = Workload(spec)
        try:
            for form in ("linear", "blocks"):
                workload.build(geometry, form=form, miss_scale=TIMING_MISS_SCALE)
            return workload
        except OverflowError:
            if seed == 0:
                raise


def cell_key(points: Tuple[Point, ...], cell: SweepCell) -> str:
    index, workload = cell
    return f"{points[index].label}|{workload}"


def sweep_order(points: Tuple[Point, ...], seed: int) -> List[SweepCell]:
    """Every (point, workload) cell once, in seeded order.

    Each run of 6 cells holds every workload once, on design points
    spread evenly over the (seeded) point order, so any prefix of a run
    holds nearly the same mix of workloads and design points whatever
    the host's speed: runs that end mid-pass stay comparable.
    """
    rng = random.Random(f"order/{seed}")
    order = list(range(len(points)))
    names = list(WORKLOADS)
    rng.shuffle(order)
    rng.shuffle(names)
    stride = -(-len(points) // len(names))
    return [
        (order[(k + j * stride) % len(points)], name)
        for k in range(len(points))
        for j, name in enumerate(names)
    ]


def checked_cells(points: Tuple[Point, ...], seed: int, limit: Optional[int] = None) -> List[SweepCell]:
    """One cell per design point, workload drawn by seed: the fixed set
    every run digests, fingerprints, and replays under the profiler."""
    rng = random.Random(f"checked/{seed}")
    cells = [(index, rng.choice(WORKLOADS)) for index in range(len(points))]
    return cells[:limit] if limit is not None else cells


def sample(cells: List, count: int, seed: int, salt: str) -> List:
    """A seeded sample of ``count`` items (all of them when fewer)."""
    rng = random.Random(f"{salt}/{seed}")
    return rng.sample(cells, min(count, len(cells)))


# -- the served and sharded request mix ----------------------------------

SERVICE_PRESETS = (
    "no_tlb",
    "naive",
    "blocking",
    "hit_under_miss",
    "non_blocking",
    "augmented",
    "ideal",
)
SERVICE_WARMUPS = (0, 10, 20, 40)

#: A service cell: (preset, workload, warmup_instructions).
ServiceCell = Tuple[str, str, int]


def service_config(cell: ServiceCell) -> GPUConfig:
    preset, _workload, warmup = cell
    return GPUConfig.preset(preset, warmup_instructions=warmup)


def service_pool(seed: int) -> Iterator[ServiceCell]:
    """Endless stream of distinct service cells in a balanced order.

    Cell ``i`` pairs preset ``i mod 7`` with workload ``i mod 6`` (both
    in seeded order), so every 7 consecutive cells hold each preset once,
    every 6 each workload once, and every 42 each pairing once: any
    window of the stream carries nearly the same simulation cost
    whatever the seed.  Each block of 42 takes the next warmup length:
    the paper's 0/10/20/40 first, then 5, 15, ... 65, so no cell repeats
    within the first 462.
    """
    rng = random.Random(f"pool/{seed}")
    presets_order = list(SERVICE_PRESETS)
    names = list(WORKLOADS)
    warmups = list(SERVICE_WARMUPS)
    rng.shuffle(presets_order)
    rng.shuffle(names)
    rng.shuffle(warmups)
    warmups += list(range(5, 75, 10))
    block = len(presets_order) * len(names)
    index = 0
    while True:
        yield (
            presets_order[index % len(presets_order)],
            names[index % len(names)],
            warmups[(index // block) % len(warmups)],
        )
        index += 1


def layer_cells(seed: int) -> List[ServiceCell]:
    """Two service cells per preset, workload and warmup drawn by seed:
    the fixed set the service workloads replay under the profiler."""
    rng = random.Random(f"layers/{seed}")
    return [
        (preset, rng.choice(WORKLOADS), rng.choice(SERVICE_WARMUPS))
        for preset in SERVICE_PRESETS
        for _ in range(2)
    ]


def serve_body(cell: ServiceCell) -> Dict:
    preset, workload, warmup = cell
    return {
        "kind": "simulate",
        "params": {
            "config": {
                "preset": preset,
                "overrides": {"warmup_instructions": warmup},
            },
            "workload": workload,
        },
    }


def service_key(cell: ServiceCell) -> str:
    preset, workload, warmup = cell
    return f"{preset}|{workload}|w{warmup}"
