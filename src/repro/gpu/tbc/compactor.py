"""The thread compactor: dynamic warp formation per region.

Baseline TBC packs same-path threads into the fewest dynamic warps the
lane constraint allows (a thread never leaves its SIMD lane — the
priority encoders of Figure 21 pick at most one thread per lane per
cycle).  TLB-aware TBC adds one gate: a thread joins a dynamic warp
only if the Common Page Matrix says its original warp has recently
shared PTEs with every original warp already compacted into it — the
difference between the middle and right warp layouts of Figure 19.
TLB-aware TBC may therefore emit *more* dynamic warps, trading SIMD
utilization for page divergence, which nets out ahead (Figure 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.gpu.instruction import MemoryInstruction, WarpTrace, compute_instruction
from repro.gpu.tbc.blocks import Region, ThreadBlock
from repro.gpu.tbc.cpm import CommonPageMatrix
from repro.gpu.tbc.reconvergence import stack_execution_groups


@dataclass(frozen=True)
class ExecutionGroup:
    """A formed warp for one region: a path and the threads running it."""

    path: int
    threads: Tuple[int, ...]


def _compact_path(
    block: ThreadBlock,
    threads: List[int],
    cpm: Optional[CommonPageMatrix],
    slot_base: int,
) -> List[ExecutionGroup]:
    """Lane-aware greedy packing of one path's threads, optionally gated
    by the CPM."""
    # Each open warp: (lane -> tid map, set of member original warps).
    open_warps: List[Tuple[Dict[int, int], set]] = []
    for tid in threads:
        lane = block.lane(tid)
        origin = slot_base + block.original_warp(tid)
        placed = False
        for lanes, members in open_warps:
            if lane in lanes:
                continue
            if cpm is not None and not cpm.compatible(origin, members):
                continue
            lanes[lane] = tid
            members.add(origin)
            placed = True
            break
        if not placed:
            open_warps.append(({lane: tid}, {origin}))
    path = None  # filled by caller
    return [
        ExecutionGroup(path=path, threads=tuple(sorted(lanes.values())))
        for lanes, _ in open_warps
    ]


def compact_region(
    block: ThreadBlock,
    region: Region,
    cpm: Optional[CommonPageMatrix] = None,
    slot_base: int = 0,
) -> List[ExecutionGroup]:
    """Form dynamic warps for every path of a region.

    ``cpm=None`` is baseline TBC; passing a matrix enables the TLB-aware
    gate.  Paths are emitted in ascending path-id order, matching the
    block-wide reconvergence stack.
    """
    groups: List[ExecutionGroup] = []
    for path in region.paths:
        packed = _compact_path(block, region.threads_on_path(path), cpm, slot_base)
        groups.extend(
            ExecutionGroup(path=path, threads=group.threads) for group in packed
        )
    return groups


#: Memoized _group_trace results.  A formed trace is a pure function of
#: the (immutable) block, region, group shape, and slot assignment, and
#: is never written through once built, so identical groups — the same
#: region compacted the same way in a later run, or by a different TBC
#: mode — can share one WarpTrace.  Values keep the block and region so
#: a recycled id() can never alias.
_TRACE_CACHE: Dict[tuple, tuple] = {}
_TRACE_CACHE_LIMIT = 100_000

#: Interned parts of formed warps.  A per-lane origins tuple maps to
#: itself: every memory instruction of a formed warp, and every formed
#: warp with the same lane-to-original-warp layout, shares one.  A
#: ``(lane addresses, origins)`` pair maps to its MemoryInstruction:
#: formed warps repeat across regions, modes and cells, and equal
#: instructions share one object.  Capped like _TRACE_CACHE.
_ORIGINS: Dict[tuple, Any] = {}


def _group_trace(
    block: ThreadBlock,
    region: Region,
    group: ExecutionGroup,
    warp_id: int,
    slot_base: int,
) -> WarpTrace:
    """Materialize the warp instructions one execution group runs."""
    key = (id(block), id(region), group.path, group.threads, warp_id, slot_base)
    cached = _TRACE_CACHE.get(key)
    if cached is not None and cached[0] is block and cached[1] is region:
        return cached[2]
    program = region.path_programs[group.path]
    lanes: Dict[int, int] = {block.lane(tid): tid for tid in group.threads}
    if len(lanes) != len(group.threads):
        raise ValueError("execution group has a lane conflict")
    lane_origins: List[Optional[int]] = [None] * block.warp_width
    for lane, tid in lanes.items():
        lane_origins[lane] = slot_base + block.original_warp(tid)
    if len(_ORIGINS) >= _TRACE_CACHE_LIMIT:
        _ORIGINS.clear()
    origins = _ORIGINS.setdefault(tuple(lane_origins), tuple(lane_origins))
    instructions = []
    mem_index = 0
    for template in program:
        if template[0] == "c":
            instructions.append(compute_instruction(template[1]))
            continue
        addresses: List[Optional[int]] = [None] * block.warp_width
        for lane, tid in lanes.items():
            addresses[lane] = region.thread_addresses[tid][mem_index]
        mem_index += 1
        parts = (tuple(addresses), origins)
        instruction = _ORIGINS.get(parts)
        if instruction is None:
            instruction = _ORIGINS[parts] = MemoryInstruction(
                addresses=parts[0], origins=origins
            )
        instructions.append(instruction)
    trace = WarpTrace(
        warp_id=warp_id, instructions=instructions, block_id=block.block_id
    )
    if len(_TRACE_CACHE) > _TRACE_CACHE_LIMIT:
        _TRACE_CACHE.clear()
    _TRACE_CACHE[key] = (block, region, trace)
    return trace


def form_region_warps(
    block: ThreadBlock,
    region_index: int,
    mode: str,
    cpm: Optional[CommonPageMatrix] = None,
    slot_base: int = 0,
) -> List[WarpTrace]:
    """Build the warp traces that execute one region of a block.

    ``mode`` is ``"stack"`` (per-warp reconvergence, serialized paths),
    ``"tbc"`` (baseline compaction) or ``"tlb-tbc"`` (CPM-gated
    compaction; requires ``cpm``).  Warp ids are assigned cyclically
    over the block's ``num_warps`` hardware slots starting at
    ``slot_base``.
    """
    region = block.regions[region_index]
    if mode == "stack":
        groups = [
            ExecutionGroup(path=masked.path, threads=masked.threads)
            for masked in stack_execution_groups(block, region)
        ]
    elif mode == "tbc":
        groups = compact_region(block, region, cpm=None, slot_base=slot_base)
    elif mode == "tlb-tbc":
        if cpm is None:
            raise ValueError("tlb-tbc formation requires a CommonPageMatrix")
        groups = compact_region(block, region, cpm=cpm, slot_base=slot_base)
    else:
        raise ValueError(f"unknown TBC mode {mode!r}")
    traces = []
    for index, group in enumerate(groups):
        warp_id = slot_base + (index % block.num_warps)
        traces.append(_group_trace(block, region, group, warp_id, slot_base))
    return traces
