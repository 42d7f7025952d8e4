"""Warp-level instructions and traces.

The simulator is trace driven: a workload supplies, per warp, a sequence
of warp instructions.  A compute instruction occupies the issue slot and
the warp for a fixed latency.  A memory instruction carries one virtual
address per active lane (None for lanes masked off by divergence); the
memory unit coalesces those into unique cache-line and unique page
references, exactly the two request sets Figure 5 presents to the L1 and
the TLB in parallel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class ComputeInstruction:
    """A non-memory warp instruction.

    ``latency`` is the cycles before the warp may issue again (1 for
    simple ALU work; larger values stand in for multi-instruction
    compute phases, keeping traces compact without changing scheduling
    behaviour).
    """

    latency: int = 1

    def __post_init__(self):
        if self.latency <= 0:
            raise ValueError("compute latency must be positive")


@functools.lru_cache(maxsize=1024)
def compute_instruction(latency: int) -> ComputeInstruction:
    """The one shared :class:`ComputeInstruction` of ``latency`` cycles
    (it is immutable, so every trace can hold the same object)."""
    return ComputeInstruction(latency=latency)


@dataclass(frozen=True)
class MemoryInstruction:
    """A warp load/store with per-lane virtual addresses.

    ``addresses[i]`` is lane *i*'s byte virtual address, or None when the
    lane is inactive.  At least one lane must be active.

    ``origins[i]`` optionally records the *original* (static) warp of
    the thread occupying lane *i* — meaningful only inside dynamic warps
    formed by thread block compaction, where the Common Page Matrix
    tracks PTE sharing between original warps.
    """

    addresses: Tuple[Optional[int], ...]
    origins: Optional[Tuple[Optional[int], ...]] = None

    def __post_init__(self):
        if not any(addr is not None for addr in self.addresses):
            raise ValueError("memory instruction with no active lane")
        for addr in self.addresses:
            if addr is not None and addr < 0:
                raise ValueError("virtual addresses must be non-negative")
        if self.origins is not None and len(self.origins) != len(self.addresses):
            raise ValueError("origins must align with addresses lane for lane")

    @property
    def active_lanes(self) -> int:
        """Number of lanes participating in the access."""
        return sum(1 for addr in self.addresses if addr is not None)


WarpInstruction = Union[ComputeInstruction, MemoryInstruction]


@dataclass
class WarpTrace:
    """The instruction stream one warp executes.

    Attributes
    ----------
    warp_id:
        Hardware warp slot (also the identity CCWS/TBC structures key on).
    instructions:
        Ordered warp instructions.
    block_id:
        Thread block this warp belongs to (used by TBC grouping).
    """

    warp_id: int
    instructions: List[WarpInstruction] = field(default_factory=list)
    block_id: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def memory_instruction_count(self) -> int:
        """Memory instructions in the trace."""
        return sum(
            1 for instr in self.instructions if isinstance(instr, MemoryInstruction)
        )

    @property
    def instruction_count(self) -> int:
        """Total warp instructions, counting a compute's latency as its
        folded instruction count (so memory-instruction *fractions* match
        the per-scalar-instruction percentages the paper reports)."""
        total = 0
        for instr in self.instructions:
            if isinstance(instr, ComputeInstruction):
                total += instr.latency
            else:
                total += 1
        return total
