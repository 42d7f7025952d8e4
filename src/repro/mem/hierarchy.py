"""Composition of the memory system: L1 → interconnect → L2 → DRAM.

Mirrors the paper's evaluation platform (Section 5.2): per-shader-core
32 KB L1 data caches, 8 memory channels each with a 128 KB slice of
unified L2, and DRAM behind each channel.  Page table walker references
are injected into the shared L2 ("MSHR allocation triggers page table
walks, which inject memory requests to the shared caches and main
memory") as their own request class, :meth:`SharedMemory.walk_load`,
and the hierarchy keeps separate counters for them so the PTW
scheduler's cache-hit-rate improvements are measurable (Figure 10).
"""

from __future__ import annotations

from typing import List, Optional

from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DRAM
from repro.mem.mshr import MSHRFile
from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof


class MemAccessResult:
    """Outcome of a demand access through the hierarchy.

    A plain ``__slots__`` value object: one is built per access on the
    hottest simulator path, where slotted construction beats a frozen
    dataclass by a wide margin.

    Attributes
    ----------
    ready_time:
        Cycle at which the requested data is available.
    level:
        Where the request was satisfied: ``"l1"``, ``"l1-mshr"``,
        ``"l2"``, or ``"dram"``.
    evicted_line / evicted_warp:
        L1 victim information for CCWS (None when nothing was evicted).
    """

    __slots__ = ("ready_time", "level", "evicted_line", "evicted_warp")

    def __init__(
        self,
        ready_time: int,
        level: str,
        evicted_line: Optional[int] = None,
        evicted_warp: Optional[int] = None,
    ):
        self.ready_time = ready_time
        self.level = level
        self.evicted_line = evicted_line
        self.evicted_warp = evicted_warp

    def __eq__(self, other):
        return (
            isinstance(other, MemAccessResult)
            and self.ready_time == other.ready_time
            and self.level == other.level
            and self.evicted_line == other.evicted_line
            and self.evicted_warp == other.evicted_warp
        )

    def __repr__(self):
        return (
            f"MemAccessResult(ready_time={self.ready_time}, "
            f"level={self.level!r}, evicted_line={self.evicted_line}, "
            f"evicted_warp={self.evicted_warp})"
        )


class SharedMemory:
    """Shared L2 slices plus DRAM, common to all shader cores."""

    def __init__(
        self,
        num_channels: int = 8,
        l2_bytes_per_channel: int = 128 * 1024,
        line_bytes: int = 128,
        l2_associativity: int = 8,
        l2_latency: int = 20,
        l2_service_interval: int = 4,
        interconnect_latency: int = 8,
        dram_latency: int = 200,
        dram_service_interval: int = 8,
    ):
        self.line_bytes = line_bytes
        self.num_channels = num_channels
        self.l2_latency = l2_latency
        self.l2_service_interval = l2_service_interval
        self.interconnect_latency = interconnect_latency
        self.l2_banks: List[SetAssociativeCache] = [
            SetAssociativeCache(
                l2_bytes_per_channel,
                line_bytes,
                l2_associativity,
                label=f"l2-bank{bank}",
            )
            for bank in range(num_channels)
        ]
        # Each L2 bank serves one access per service interval; requests
        # arriving while the bank is busy queue behind it (bank port
        # bandwidth, not just latency, bounds cache-heavy workloads).
        self._bank_busy_until: List[int] = [0] * num_channels
        self.dram = DRAM(
            num_channels=num_channels,
            access_latency=dram_latency,
            service_interval=dram_service_interval,
            line_bytes=line_bytes,
        )
        self.l2_hits = 0
        self.l2_misses = 0
        self.ptw_refs = 0
        self.ptw_l2_hits = 0

    def access_line(self, line_addr: int, now: int) -> MemAccessResult:
        """A data access to a line in the shared levels; returns its
        ready time and the level that served it.

        Data requests queue behind the bank's busy window (one access
        per service interval); page-walk loads take
        :meth:`walk_load` instead.
        """
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_L2)
        channel = self.dram.channel_of(line_addr)
        bank = self.l2_banks[channel]
        arrive = now + self.interconnect_latency
        start = max(arrive, self._bank_busy_until[channel])
        self._bank_busy_until[channel] = start + self.l2_service_interval
        if bank.access(line_addr).hit:
            self.l2_hits += 1
            if _prof.ENABLED:
                _prof.end()
            return MemAccessResult(start + self.l2_latency, "l2")
        self.l2_misses += 1
        ready = self.dram.access(line_addr, start + self.l2_latency)
        if _prof.ENABLED:
            _prof.end()
        return MemAccessResult(ready + self.interconnect_latency, "dram")

    def walk_load(self, line_addr: int, now: int) -> int:
        """A page walk's load of ``line_addr`` issued at ``now``; returns
        the cycle its data is ready.

        Walk loads are prioritized past the bank's data queue: they are
        a small fraction of traffic, every cycle they wait is multiplied
        by the walk's dependent levels, and real memory controllers
        arbitrate request classes rather than FIFO-ing translation
        traffic behind data bursts.  They still consume bank bandwidth
        (the busy window advances).  The bank's LRU set is updated in
        place, with the CACHE_ACCESS event and ``cache_l2`` profiler
        phase ``SetAssociativeCache.access`` and :meth:`access_line`
        would record; an L2 miss goes on to ``DRAM.access``.
        """
        profiled = _prof.ENABLED
        if profiled:
            _prof.begin(_prof.PHASE_L2)
        self.ptw_refs += 1
        channel = line_addr // self.line_bytes % self.num_channels
        arrive = now + self.interconnect_latency
        busy = self._bank_busy_until[channel]
        self._bank_busy_until[channel] = (
            arrive if arrive > busy else busy
        ) + self.l2_service_interval
        bank = self.l2_banks[channel]
        bank_set = bank._sets[line_addr // bank.line_bytes % bank.num_sets]
        ready = arrive + self.l2_latency
        if line_addr in bank_set:
            bank.hits += 1
            self.l2_hits += 1
            self.ptw_l2_hits += 1
            bank_set[line_addr] = bank_set.pop(line_addr)  # move to MRU
            if _trace.ENABLED:
                _trace.RECORD(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        _trace.CORE,
                        bank.label,
                        None,
                        {"line": line_addr, "hit": True, "warp": None},
                    )
                )
        else:
            bank.misses += 1
            self.l2_misses += 1
            evicted = None
            if len(bank_set) >= bank.associativity:
                evicted = next(iter(bank_set))
                del bank_set[evicted]
            bank_set[line_addr] = None
            if _trace.ENABLED:
                _trace.RECORD(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        _trace.CORE,
                        bank.label,
                        None,
                        {
                            "line": line_addr,
                            "hit": False,
                            "warp": None,
                            "evicted": evicted,
                        },
                    )
                )
            ready = self.dram.access(line_addr, ready) + self.interconnect_latency
        if profiled:
            _prof.end()
        return ready

    @property
    def ptw_l2_hit_rate(self) -> float:
        """Fraction of page-walk references that hit in the L2."""
        return self.ptw_l2_hits / self.ptw_refs if self.ptw_refs else 0.0


class CoreMemory:
    """The per-shader-core L1 data cache and its MSHR file.

    The L1 is virtually indexed and physically tagged; lookup proceeds in
    parallel with TLB access and the returned latencies assume the TLB
    delivered the tag in time (the TLB access-latency model charges any
    excess separately).
    """

    def __init__(
        self,
        shared: SharedMemory,
        l1_bytes: int = 32 * 1024,
        line_bytes: int = 128,
        l1_associativity: int = 8,
        l1_latency: int = 1,
        mshr_entries: int = 32,
    ):
        self.shared = shared
        self.l1_latency = l1_latency
        self.l1 = SetAssociativeCache(
            l1_bytes, line_bytes, l1_associativity, label="l1"
        )
        self.mshrs = MSHRFile(mshr_entries)
        self.l1_hits = 0
        self.l1_misses = 0
        self.total_miss_latency = 0

    def access(self, line_addr: int, now: int, warp_id: Optional[int] = None) -> MemAccessResult:
        """Demand access by a warp; models hit, MSHR merge, or fill."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_CACHE)
        access = self.l1.access(line_addr, warp_id)
        if access.hit:
            self.l1_hits += 1
            if _prof.ENABLED:
                _prof.end()
            return MemAccessResult(now + self.l1_latency, "l1")
        self.l1_misses += 1
        # A merge joins an entry still in flight: the lookup retires
        # every entry filling at or before ``now`` first.
        ready = self.mshrs.lookup(line_addr, now)
        if ready is not None:
            self.total_miss_latency += ready - now
            if _prof.ENABLED:
                _prof.end()
            return MemAccessResult(
                ready, "l1-mshr", access.evicted_line, access.evicted_warp
            )
        # The request goes out on the wire now; a full MSHR file delays
        # only when the *fill* can land (the returned data waits for a
        # free slot).  Shared-level queues must see arrivals in
        # (near-)present time — forward-dating them would retroactively
        # delay other requesters, such as the page table walker.
        slot_free = self.mshrs.earliest_free(now)
        shared = self.shared.access_line(line_addr, now)
        ready = max(shared.ready_time, slot_free + self.l1_latency)
        self.mshrs.allocate(line_addr, ready, slot_free)
        self.total_miss_latency += ready - now
        if _prof.ENABLED:
            _prof.end()
        return MemAccessResult(
            ready, shared.level, access.evicted_line, access.evicted_warp
        )

    @property
    def average_miss_latency(self) -> float:
        """Average cycles from L1 miss to data return (Figure 4 metric)."""
        return self.total_miss_latency / self.l1_misses if self.l1_misses else 0.0
