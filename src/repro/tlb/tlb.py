"""The per-shader-core set-associative TLB.

One TLB is shared by all SIMD lanes of a shader core (Section 6.2).
Entries map virtual page numbers to physical frame numbers with true LRU
within each set.  Two paper-specific extensions live here:

- **LRU-depth reporting** — TCWS weights TLB *hits* by how deep in the
  set's LRU stack they land (Section 7.2), so lookups report their depth
  (0 = MRU).
- **Warp history** — each entry remembers the last two warps that hit
  it, mirroring the 12 spare PTE bits the paper borrows; TLB-aware TBC's
  Common Page Matrix is updated from this history on every hit
  (Section 8.2, Figure 21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof
from repro.vm.pte import HISTORY_LENGTH


class TLBLookup:
    """Outcome of a TLB lookup.

    A plain ``__slots__`` value object — one is built per probed page on
    the simulator's hottest path.

    Attributes
    ----------
    hit:
        Whether the translation was resident.
    pfn:
        Physical frame number on a hit, else None.
    lru_depth:
        Depth in the set's LRU stack on a hit (0 = most recent), else None.
    prior_history:
        Warps that had hit this entry before this lookup (most recent
        first); empty on a miss.  Feeds the Common Page Matrix.
    """

    __slots__ = ("hit", "pfn", "lru_depth", "prior_history")

    def __init__(
        self,
        hit: bool,
        pfn: Optional[int] = None,
        lru_depth: Optional[int] = None,
        prior_history: Tuple[int, ...] = (),
    ):
        self.hit = hit
        self.pfn = pfn
        self.lru_depth = lru_depth
        self.prior_history = prior_history

    def __eq__(self, other):
        return (
            isinstance(other, TLBLookup)
            and self.hit == other.hit
            and self.pfn == other.pfn
            and self.lru_depth == other.lru_depth
            and self.prior_history == other.prior_history
        )

    def __repr__(self):
        return (
            f"TLBLookup(hit={self.hit}, pfn={self.pfn}, "
            f"lru_depth={self.lru_depth}, prior_history={self.prior_history})"
        )


#: Shared miss outcome: misses carry no payload, so every miss can
#: return the same immutable-by-convention instance.
_MISS = TLBLookup(hit=False)


@dataclass(frozen=True)
class TLBEviction:
    """A translation displaced by a fill.

    ``owner`` is the warp that most recently hit the entry (None when it
    was never hit after filling) — the warp whose locality was lost,
    and hence whose victim tag array TCWS records the page in.
    """

    vpn: int
    owner: Optional[int]


class _TLBEntry:
    __slots__ = ("vpn", "pfn", "history")

    def __init__(self, vpn: int, pfn: int, history: Optional[List[int]] = None):
        self.vpn = vpn
        self.pfn = pfn
        self.history = [] if history is None else history


class SetAssociativeTLB:
    """A set-associative, LRU TLB indexed by virtual page number.

    Parameters
    ----------
    entries:
        Total entry count (the paper's default is 128).
    associativity:
        Ways per set (the paper's TCWS study assumes 4-way).
    ports:
        Simultaneous lookups per cycle.  Port arbitration is enforced by
        the shader core's memory unit; the TLB records the count so the
        core can compute occupancy.
    """

    def __init__(self, entries: int = 128, associativity: int = 4, ports: int = 4):
        if entries <= 0 or associativity <= 0 or ports <= 0:
            raise ValueError("TLB geometry must be positive")
        if entries % associativity:
            raise ValueError(
                f"{entries} entries does not divide into {associativity}-way sets"
            )
        self.entries = entries
        self.associativity = associativity
        self.ports = ports
        self.num_sets = entries // associativity
        # Per set: insertion-ordered dict vpn -> entry, oldest (LRU) first.
        self._sets: Dict[int, Dict[int, _TLBEntry]] = {}
        self.hits = 0
        self.misses = 0

    def _set_index(self, vpn: int) -> int:
        return vpn % self.num_sets

    def lookup(self, vpn: int, warp_id: Optional[int] = None) -> TLBLookup:
        """Look up a translation, updating LRU and warp history on a hit."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_TLB)
        tlb_set = self._sets.get(self._set_index(vpn))
        if tlb_set is None or vpn not in tlb_set:
            self.misses += 1
            if _trace.ENABLED:
                _trace.emit(
                    _ev.TLB_LOOKUP, track="tlb", vpn=vpn, hit=False, warp=warp_id
                )
            if _prof.ENABLED:
                _prof.end()
            return _MISS
        self.hits += 1
        # Depth from the MRU end: walk newest-to-oldest until the hit.
        depth_from_mru = 0
        for resident_vpn in reversed(tlb_set):
            if resident_vpn == vpn:
                break
            depth_from_mru += 1
        entry = tlb_set.pop(vpn)
        prior_history = tuple(entry.history)
        if warp_id is not None:
            if warp_id in entry.history:
                entry.history.remove(warp_id)
            entry.history.insert(0, warp_id)
            del entry.history[HISTORY_LENGTH:]
        tlb_set[vpn] = entry  # move to MRU
        if _trace.ENABLED:
            _trace.emit(
                _ev.TLB_LOOKUP,
                track="tlb",
                vpn=vpn,
                hit=True,
                depth=depth_from_mru,
                warp=warp_id,
            )
        if _prof.ENABLED:
            _prof.end()
        return TLBLookup(
            hit=True,
            pfn=entry.pfn,
            lru_depth=depth_from_mru,
            prior_history=prior_history,
        )

    def probe(self, vpn: int) -> bool:
        """Check residency without disturbing LRU, history, or counters."""
        tlb_set = self._sets.get(self._set_index(vpn))
        return tlb_set is not None and vpn in tlb_set

    def fill(self, vpn: int, pfn: int, warp_id: Optional[int] = None) -> Optional[TLBEviction]:
        """Install a translation; return the eviction it caused, if any.

        The evicted page and its owning warp feed TCWS's page-grain
        victim tag arrays.
        """
        index = self._set_index(vpn)
        tlb_set = self._sets.setdefault(index, {})
        if vpn in tlb_set:
            entry = tlb_set.pop(vpn)
            entry.pfn = pfn
            tlb_set[vpn] = entry
            return None
        eviction = None
        if len(tlb_set) >= self.associativity:
            evicted_vpn = next(iter(tlb_set))
            victim = tlb_set.pop(evicted_vpn)
            owner = victim.history[0] if victim.history else None
            eviction = TLBEviction(vpn=evicted_vpn, owner=owner)
        history = [warp_id] if warp_id is not None else []
        tlb_set[vpn] = _TLBEntry(vpn=vpn, pfn=pfn, history=history)
        return eviction

    def flush(self) -> None:
        """Invalidate all entries (TLB shootdown, Section 6.2)."""
        self._sets.clear()

    def invalidate(self, vpn: int) -> bool:
        """Invalidate one translation (targeted shootdown / injected
        invalidation); return whether it was resident."""
        tlb_set = self._sets.get(self._set_index(vpn))
        if tlb_set is None or vpn not in tlb_set:
            return False
        del tlb_set[vpn]
        return True

    @property
    def resident(self) -> int:
        """Number of translations currently held."""
        return sum(len(s) for s in self._sets.values())

    @property
    def miss_rate(self) -> float:
        """Miss rate observed so far."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
