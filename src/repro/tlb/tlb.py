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
  (Section 8.2, Figure 21), and an eviction names the entry's most
  recent warp (TCWS's page victim tag arrays).  A TLB whose machine
  reads neither keeps no history (``keep_history=False``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

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


class TLBEviction(NamedTuple):
    """A translation displaced by a fill.

    ``owner`` is the warp that most recently hit the entry (None when it
    was never hit after filling) — the warp whose locality was lost,
    and hence whose victim tag array TCWS records the page in.
    """

    vpn: int
    owner: Optional[int]


#: The history of every entry of a TLB that keeps none.
_NO_HISTORY: Tuple[int, ...] = ()


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
    keep_history:
        Whether entries keep their per-hit warp history.  Without it,
        lookups report an empty ``prior_history`` and evictions no
        owner; the shader core turns it off when nothing reads either.

    Each set is an insertion-ordered dict of vpn → entry (LRU first),
    held in a list preallocated at construction and indexed by set
    number; :meth:`flush` empties the sets in place.
    """

    def __init__(
        self,
        entries: int = 128,
        associativity: int = 4,
        ports: int = 4,
        keep_history: bool = True,
    ):
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
        self.keep_history = keep_history
        # The event engine indexes this list directly.
        self._sets: List[Dict[int, _TLBEntry]] = [
            {} for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_index(self, vpn: int) -> int:
        return vpn % self.num_sets

    def lookup(self, vpn: int, warp_id: Optional[int] = None) -> TLBLookup:
        """Look up a translation, updating LRU and warp history on a hit."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_TLB)
        tlb_set = self._sets[self._set_index(vpn)]
        if vpn not in tlb_set:
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
        history = entry.history
        prior_history = tuple(history)
        if warp_id is not None and self.keep_history:
            if warp_id in history:
                history.remove(warp_id)
            history.insert(0, warp_id)
            del history[HISTORY_LENGTH:]
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
        return vpn in self._sets[self._set_index(vpn)]

    def fill(self, vpn: int, pfn: int, warp_id: Optional[int] = None) -> Optional[TLBEviction]:
        """Install a translation; return the eviction it caused, if any.

        The evicted page and its owning warp feed TCWS's page-grain
        victim tag arrays.
        """
        tlb_set = self._sets[self._set_index(vpn)]
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
            eviction = TLBEviction(evicted_vpn, owner)
        if not self.keep_history:
            history = _NO_HISTORY
        elif warp_id is not None:
            history = [warp_id]
        else:
            history = []
        tlb_set[vpn] = _TLBEntry(vpn, pfn, history)
        return eviction

    def flush(self) -> None:
        """Invalidate all entries (TLB shootdown, Section 6.2).

        The sets are emptied in place: the event engine binds the list
        once per run.
        """
        for tlb_set in self._sets:
            tlb_set.clear()

    def invalidate(self, vpn: int) -> bool:
        """Invalidate one translation (targeted shootdown / injected
        invalidation); return whether it was resident."""
        tlb_set = self._sets[self._set_index(vpn)]
        if vpn not in tlb_set:
            return False
        del tlb_set[vpn]
        return True

    @property
    def resident(self) -> int:
        """Number of translations currently held."""
        return sum(map(len, self._sets))

    @property
    def miss_rate(self) -> float:
        """Miss rate observed so far."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
