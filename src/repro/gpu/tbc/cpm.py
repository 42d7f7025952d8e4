"""The Common Page Matrix (paper Section 8.2, Figure 21).

A table with one row per original warp and one saturating counter per
*other* warp (48 × 47 in the paper's cores).  Counter (a, b) tracks how
often warps *a* and *b* have recently hit the same TLB entries; the
thread compactor only packs a thread into a dynamic warp when its
original warp's counters against every original warp already in that
dynamic warp are saturated.  With 3-bit counters the table is 0.8 KB.
The matrix is flushed every 500 cycles so it keeps adapting to program
behaviour, and all updates happen off the compaction critical path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class CommonPageMatrix:
    """Pairwise warp PTE-sharing confidence counters.

    Parameters
    ----------
    num_warps:
        Rows (original warps per core; the paper uses 48).
    counter_bits:
        Saturating counter width; Figure 22 sweeps 1–3 bits.
    flush_interval:
        Cycles between periodic flushes (paper: 500).
    """

    def __init__(self, num_warps: int = 48, counter_bits: int = 3, flush_interval: int = 500):
        if num_warps < 2:
            raise ValueError("CPM needs at least two warps")
        if not 1 <= counter_bits <= 8:
            raise ValueError("counter_bits must be 1-8")
        if flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        self.num_warps = num_warps
        self.counter_bits = counter_bits
        self.max_value = (1 << counter_bits) - 1
        self.flush_interval = flush_interval
        self._counters: Dict[Tuple[int, int], int] = {}
        self._last_flush = 0
        self.updates = 0
        self.flushes = 0

    def _check(self, warp_id: int) -> None:
        if not 0 <= warp_id < self.num_warps:
            raise ValueError(f"warp id out of range: {warp_id}")

    def value(self, warp_a: int, warp_b: int) -> int:
        """Current counter between two distinct warps."""
        self._check(warp_a)
        self._check(warp_b)
        if warp_a == warp_b:
            raise ValueError("a warp has no counter against itself")
        return self._counters.get((warp_a, warp_b), 0)

    def update(self, warp_id: int, history: Iterable[int]) -> None:
        """A TLB hit by ``warp_id`` on an entry previously touched by
        ``history`` warps: bump the pairwise counters (both directions —
        the hardware selects the row of the hitting warp and the rows of
        the history warps symmetrically)."""
        self._check(warp_id)
        for other in history:
            if other == warp_id or not 0 <= other < self.num_warps:
                continue
            for pair in ((warp_id, other), (other, warp_id)):
                current = self._counters.get(pair, 0)
                if current < self.max_value:
                    self._counters[pair] = current + 1
            self.updates += 1

    def saturated(self, warp_a: int, warp_b: int) -> bool:
        """Whether the pair's counter is at maximum (compaction allowed)."""
        return self.value(warp_a, warp_b) == self.max_value

    def compatible(self, warp_id: int, members: Iterable[int]) -> bool:
        """Whether ``warp_id`` may be compacted with all ``members``.

        "We compact the candidate thread into the dynamic warp only if
        the counters are at maximum value."  Threads from the same
        original warp are always compatible with each other.
        """
        for member in members:
            if member == warp_id:
                continue
            if not self.saturated(warp_id, member):
                return False
        return True

    def maybe_flush(self, now: int) -> bool:
        """Flush if ``flush_interval`` cycles have elapsed; return whether."""
        if now - self._last_flush >= self.flush_interval:
            self.flush()
            self._last_flush = now
            return True
        return False

    def flush(self) -> None:
        """Clear all counters."""
        self._counters.clear()
        self.flushes += 1

    def storage_bits(self) -> int:
        """Hardware cost: counters × width (0.8 KB at 48×47×3 bits)."""
        return self.num_warps * (self.num_warps - 1) * self.counter_bits
