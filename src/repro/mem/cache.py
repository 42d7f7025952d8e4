"""Set-associative cache with LRU replacement.

Each line additionally records the identifier of the warp that allocated
it, which CCWS consults when a line is evicted (the victim's tag and
allocating warp feed the per-warp victim tag arrays; Section 7.1,
Figure 12 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import events as _ev
from repro.obs import tracer as _trace


class CacheAccess:
    """Outcome of one cache access.

    A plain ``__slots__`` value object (not a dataclass): one is built
    per access on the simulator's hottest path, and slotted construction
    is measurably cheaper than a frozen dataclass there.

    Attributes
    ----------
    hit:
        Whether the line was resident.
    evicted_line:
        Line address displaced by the fill, or None when the set had a
        free way (or the access hit).
    evicted_warp:
        Warp that had allocated the displaced line, or None.
    """

    __slots__ = ("hit", "evicted_line", "evicted_warp")

    def __init__(
        self,
        hit: bool,
        evicted_line: Optional[int] = None,
        evicted_warp: Optional[int] = None,
    ):
        self.hit = hit
        self.evicted_line = evicted_line
        self.evicted_warp = evicted_warp

    def __eq__(self, other):
        return (
            isinstance(other, CacheAccess)
            and self.hit == other.hit
            and self.evicted_line == other.evicted_line
            and self.evicted_warp == other.evicted_warp
        )

    def __repr__(self):
        return (
            f"CacheAccess(hit={self.hit}, evicted_line={self.evicted_line}, "
            f"evicted_warp={self.evicted_warp})"
        )


#: Shared hit outcome: hits carry no victim info, so every hit can
#: return the same immutable-by-convention instance.
_HIT = CacheAccess(hit=True)


class SetAssociativeCache:
    """An LRU set-associative cache indexed by line address.

    Parameters
    ----------
    size_bytes:
        Total data capacity.
    line_bytes:
        Line size; the paper uses 128-byte lines throughout.
    associativity:
        Ways per set.
    label:
        Name stamped onto trace events (and their Perfetto track) so
        L1s and L2 banks are distinguishable in a trace.

    Each set is an insertion-ordered dict of line address → allocating
    warp (LRU first), held in a list preallocated at construction and
    indexed by set number; :meth:`flush` empties the sets in place.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 128,
        associativity: int = 8,
        label: str = "cache",
    ):
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines == 0 or num_lines % associativity:
            raise ValueError(
                f"{size_bytes} bytes / {line_bytes} B lines does not divide "
                f"into {associativity}-way sets"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.label = label
        self.num_sets = num_lines // associativity
        # The event engine and SharedMemory.walk_load index this list
        # directly.  Hits reinsert a line to move it to MRU.
        self._sets: List[Dict[int, Optional[int]]] = [
            {} for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_index(self, line_addr: int) -> int:
        return line_addr // self.line_bytes % self.num_sets

    def lookup(self, line_addr: int) -> bool:
        """Probe without updating LRU state or filling."""
        return line_addr in self._sets[self._set_index(line_addr)]

    def access(self, line_addr: int, warp_id: Optional[int] = None) -> CacheAccess:
        """Access ``line_addr``; fill (and possibly evict) on a miss."""
        cache_set = self._sets[self._set_index(line_addr)]
        if line_addr in cache_set:
            self.hits += 1
            owner = cache_set.pop(line_addr)
            cache_set[line_addr] = owner  # move to MRU
            if _trace.ENABLED:
                _trace.RECORD(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        _trace.CORE,
                        self.label,
                        None,
                        {"line": line_addr, "hit": True, "warp": warp_id},
                    )
                )
            return _HIT
        self.misses += 1
        evicted_line = None
        evicted_warp = None
        if len(cache_set) >= self.associativity:
            evicted_line, evicted_warp = next(iter(cache_set.items()))
            del cache_set[evicted_line]
        cache_set[line_addr] = warp_id
        if _trace.ENABLED:
            _trace.RECORD(
                (
                    _ev.CACHE_ACCESS,
                    _trace.NOW,
                    _trace.CORE,
                    self.label,
                    None,
                    {
                        "line": line_addr,
                        "hit": False,
                        "warp": warp_id,
                        "evicted": evicted_line,
                    },
                )
            )
        return CacheAccess(
            hit=False, evicted_line=evicted_line, evicted_warp=evicted_warp
        )

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; return whether it was resident."""
        cache_set = self._sets[self._set_index(line_addr)]
        if line_addr in cache_set:
            del cache_set[line_addr]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (e.g. on a TLB shootdown / context switch).

        The sets are emptied in place: the event engine binds the list
        once per run.
        """
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently held."""
        return sum(map(len, self._sets))

    @property
    def miss_rate(self) -> float:
        """Demand miss rate observed so far."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
