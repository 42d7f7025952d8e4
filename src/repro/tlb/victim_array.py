"""Per-warp victim tag arrays for the CCWS scheduler family.

CCWS keeps a small set-associative tag array per warp recording recently
evicted cache lines; a miss that hits in its own warp's VTA signals
*lost intra-warp locality* (Section 7.1, Figure 12).  TCWS reuses the
same structure at page granularity, fed by TLB evictions instead of
cache evictions — pages being 32× coarser than lines, half the hardware
suffices (Section 7.2, Figure 15).

Tags here are whatever granule the caller evicts (line addresses for
CCWS, virtual page numbers for TCWS); the array itself is granule
agnostic.
"""

from __future__ import annotations

from typing import Dict, List


class VictimTagArray:
    """Per-warp set-associative victim tag store with LRU replacement.

    Parameters
    ----------
    num_warps:
        Number of warps (one private array each).
    entries_per_warp:
        Total tags retained per warp (the paper's CCWS baseline uses 16;
        TCWS sweeps 2–16 in Figure 17).
    associativity:
        Ways per set (paper: 8-way).  When ``entries_per_warp`` is below
        the associativity the array degenerates to fully associative.

    Each warp's sets are insertion-ordered dicts of tags (LRU first),
    preallocated in a list indexed by set number; :meth:`flush` empties
    them in place.
    """

    def __init__(self, num_warps: int, entries_per_warp: int = 16, associativity: int = 8):
        if num_warps <= 0 or entries_per_warp <= 0:
            raise ValueError("VTA geometry must be positive")
        self.num_warps = num_warps
        self.entries_per_warp = entries_per_warp
        self.associativity = min(associativity, entries_per_warp)
        if entries_per_warp % self.associativity:
            raise ValueError(
                f"{entries_per_warp} entries per warp does not divide into "
                f"{self.associativity}-way sets"
            )
        self.num_sets = entries_per_warp // self.associativity
        self._arrays: List[List[Dict[int, None]]] = [
            [{} for _ in range(self.num_sets)] for _ in range(num_warps)
        ]
        self.probes = 0
        self.probe_hits = 0

    def _set_of(self, warp_id: int, tag: int) -> Dict[int, None]:
        return self._arrays[warp_id][tag % self.num_sets]

    def insert(self, warp_id: int, tag: int) -> None:
        """Record that ``tag`` was just evicted from warp ``warp_id``."""
        vta_set = self._set_of(warp_id, tag)
        if tag in vta_set:
            del vta_set[tag]
        elif len(vta_set) >= self.associativity:
            del vta_set[next(iter(vta_set))]
        vta_set[tag] = None

    def probe(self, warp_id: int, tag: int) -> bool:
        """On a miss by ``warp_id``, check whether ``tag`` was recently lost.

        A hit means the warp's own data was evicted — lost intra-warp
        locality.  LRU position refreshes on a hit.
        """
        self.probes += 1
        vta_set = self._set_of(warp_id, tag)
        if tag in vta_set:
            del vta_set[tag]
            vta_set[tag] = None
            self.probe_hits += 1
            return True
        return False

    def flush(self) -> None:
        """Clear all warps' arrays (in place)."""
        for warp_sets in self._arrays:
            for vta_set in warp_sets:
                vta_set.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of probes that found their tag."""
        return self.probe_hits / self.probes if self.probes else 0.0

    def storage_tags(self) -> int:
        """Total tag capacity across all warps (hardware-cost proxy)."""
        return self.num_warps * self.entries_per_warp
