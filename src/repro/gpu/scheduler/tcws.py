"""TLB-conscious warp scheduling (TCWS, paper Section 7.2, Figure 15).

TCWS observes that TLB and cache behaviour are highly correlated — a TLB
miss implies the page's cache lines were referenced long ago — so it
*replaces* CCWS's cache-line victim tag arrays with page-grain TLB VTAs
fed by TLB evictions.  Pages being 32× coarser than 128-byte lines,
"TLB-based VTAs in TCWS require half the area overhead of cache
line-based CCWS" yet outperform TA-CCWS.

Because score updates only on TLB misses would adapt too slowly, TCWS
also updates scores on TLB *hits*, weighted by how deep in the set's LRU
stack the hit landed (deep hits mean the entry was close to eviction —
thrashing is near).  Figure 17 sweeps VTA entries per warp (8 is best);
Figure 18 sweeps the LRU depth weights (``(1, 2, 4, 8)`` is best).

Weights are applied relative to the MRU weight (an MRU hit is the
healthy common case and adds nothing), which keeps score totals bounded
by locality loss rather than by raw TLB traffic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.gpu.scheduler.ccws import LostLocalityScheduler


class TCWSScheduler(LostLocalityScheduler):
    """Lost-locality scheduling driven purely by TLB behaviour.

    Parameters
    ----------
    lru_hit_weights:
        Score increments per LRU stack depth of a TLB hit, MRU first;
        length must equal the TLB associativity.  Applied relative to
        the MRU weight.
    vta_hit_score:
        Score added when a TLB miss hits the warp's page VTA.
    """

    def __init__(
        self,
        num_warps: int,
        vta_entries_per_warp: int = 8,
        vta_associativity: int = 8,
        lls_cutoff: int = 32,
        base_score: int = 1,
        score_halflife: int = 4096,
        min_active_warps: int = 2,
        lru_hit_weights: Sequence[int] = (1, 2, 4, 8),
        vta_hit_score: Optional[int] = None,
    ):
        super().__init__(
            num_warps,
            vta_entries_per_warp=vta_entries_per_warp,
            vta_associativity=vta_associativity,
            lls_cutoff=lls_cutoff,
            base_score=base_score,
            score_halflife=score_halflife,
            min_active_warps=min_active_warps,
        )
        if not lru_hit_weights:
            raise ValueError("lru_hit_weights must be non-empty")
        self.lru_hit_weights: Tuple[int, ...] = tuple(lru_hit_weights)
        # A VTA hit on a missed page signals the same lost locality the
        # deepest LRU hit foreshadows, so it scores at least that much.
        self.vta_hit_score = (
            vta_hit_score if vta_hit_score is not None else max(self.lru_hit_weights)
        )
        self.tlb_vta_hits = 0

    def _depth_weight(self, lru_depth: int) -> float:
        index = min(lru_depth, len(self.lru_hit_weights) - 1)
        return self.lru_hit_weights[index] - self.lru_hit_weights[0]

    def on_tlb_hit(self, warp_id: int, vpn: int, lru_depth: int) -> None:
        weight = self._depth_weight(lru_depth)
        if weight:
            self._bump(warp_id, self.base_score * weight)

    def on_tlb_miss(self, warp_id: int, vpn: int) -> None:
        if self.vta.probe(warp_id, vpn):
            self.tlb_vta_hits += 1
            self.vta_hits += 1
            self._bump(warp_id, self.base_score * self.vta_hit_score)

    def on_tlb_evict(self, vpn: int, owner_warp: Optional[int]) -> None:
        if owner_warp is not None:
            self.vta.insert(owner_warp, vpn)

    def storage_tags(self) -> int:
        """Total VTA tags — the hardware-cost comparison of Section 7.2."""
        return self.vta.storage_tags()
