"""The event-driven engine: next-event advancement, array address math.

Byte-identity is the contract.  The cycle loop already *decides*
sparsely — most iterations either issue exactly one instruction or jump
the clock to the next warp-ready event — so this engine replays the
identical decision sequence with cheaper mechanics and produces results
(CoreStats, result JSON, snapshots, spans, traces) indistinguishable
from the cycle engine's.  Three mechanical changes carry the speedup:

- **No per-iteration rebuild.**  The cycle loop re-filters the live-warp
  list and re-allocates candidate wrappers every iteration; here live
  warps are split into a ready list (scanned for candidates) and a
  ready-time heap (drained as the clock advances), so each iteration
  touches only the warps that could actually issue, and round-robin
  selection is inlined.

- **Vectorized address math.**  Per-warp coalescing — line masking and
  VPN extraction for every lane of every memory instruction — runs as
  two whole-matrix numpy operations up front; per-instruction results
  are memoized by instruction identity.

- **Inlined memory path.**  The TLB probe, L1/MSHR, L2 bank, and DRAM
  channel state transitions are replicated inline (every counter and
  LRU/insertion-order mutation in the exact reference order) instead of
  crossing five method-call layers per line.

There is one issue loop (:meth:`EventEngine._loop`) and one memory path:
an ``issue_memory`` closure over a per-line ``access`` closure, both
built at every ``run()``/``step_to()`` entry.  Observers are installed
between runs, never mid-run, so each entry binds what is on as
booleans: tracing (TraceEvents at the cycle engine's exact stamps and
order), the interval sampler (the same loop-top clock visits), span
recording (fills for the shared ``_record_spans`` assembler), fault
injection (shootdowns before each lookup batch, invalidations inside
``_fill_tlb``), and the scheduler's memory-side hooks —
``on_l1_access``, ``on_tlb_hit`` and ``on_tlb_miss`` fire, and the TLB
LRU depth is computed, only when the policy overrides the base-class
no-ops (or the tracer needs the depth).  Traces, spans, histograms and
interval series therefore equal the cycle engine's
(``tests/engines/test_observers.py`` pins the raw trace streams), with
no cycle-loop fallback anywhere.

Round robin is selected inline; every other policy (greedy-then-oldest
and the CCWS family) runs through its real ``select()`` with the
reference loop's exact candidate list.  Demand paging needs no flag:
faults surface inside the walker, which is called unchanged.  Cache
geometry the shift/mask math cannot index falls back to the core's own
``_issue_memory``, still inside the event loop.
"""

from __future__ import annotations

import gc as _gc

from bisect import bisect_left as _bisect_left, insort as _insort
from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Dict, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - optional, plain path is exact
    _np = None

from repro.gpu.coalescer import CoalescedAccess, coalesce
from repro.gpu.instruction import ComputeInstruction, MemoryInstruction
from repro.gpu.scheduler.base import (
    Candidate,
    RoundRobinScheduler,
    WarpScheduler,
)
from repro.obs import events as _ev
from repro.obs import spans as _spans
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof
from repro.vm.pte import HISTORY_LENGTH

from repro.engines.base import SimEngine

_EMPTY_ORIGINS: Dict[int, int] = {}

#: (line_bytes, page_shift) -> {id(instr): (instr, CoalescedAccess)}.
#: Module level so a sweep's cells share the work: workload builds are
#: memoized, so the same instruction objects recur run after run.
#: Values hold the instruction itself, so an id() can never alias.
_COAL_CACHES: Dict[Tuple[int, int], Dict[int, tuple]] = {}

#: Entry cap per geometry (each (line_bytes, page_shift) dict is checked
#: on its own); TBC's dynamically formed warps can mint fresh
#: instructions every run, and a long-lived server must not grow without
#: bound.  Eviction is a full clear — rebuilding is cheap.
_COAL_CACHE_LIMIT = 250_000


def _hook(sched, name: str):
    """``sched``'s bound hook ``name``, or None while the policy keeps
    the base-class no-op (so the memory path can skip the call)."""
    if getattr(type(sched), name, None) is getattr(WarpScheduler, name):
        return None
    return getattr(sched, name)


def _build_access(core, traced: bool):
    """Build the per-line memory access function for one run.

    An inline replica of CoreMemory.access → SharedMemory → DRAM with
    every hot object captured in closure cells, returning the reference
    shape ``(ready, level, evicted_line, evicted_warp)``, where ``level``
    is the satisfying level exactly as
    :class:`~repro.mem.hierarchy.MemAccessResult` reports it (``"l1"``,
    ``"l1-mshr"``, ``"l2"``, ``"dram"``) — the span assembler's fill
    components and the scheduler's hit flag both key off it.

    Untraced, MSHR expiry runs the file's lazy-deletion heap walk inline.
    Traced, it runs the file's real ``_expire`` so entries retire in
    insertion order with MSHR_RETIRE stamped at each entry's fill time,
    and the hierarchy's events are recorded in the reference order.  A
    full file takes its exact earliest fill time from the first *live*
    heap entry instead of scanning all in-flight values.
    """
    core_id = core.core_id
    record = _trace.RECORD
    mem = core.memory
    l1 = mem.l1
    l1_label = l1.label
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    l1_assoc = l1.associativity
    l1_latency = mem.l1_latency
    mshrs = mem.mshrs
    expire = mshrs._expire
    inflight = mshrs._inflight
    heap = mshrs._heap
    mshr_capacity = mshrs.capacity
    shm = mem.shared
    banks = shm.l2_banks
    bank_labels = [bank.label for bank in banks]
    first_bank = banks[0]
    bank_shift = first_bank._line_shift
    bank_mask = first_bank._set_mask
    bank_assoc = first_bank.associativity
    bank_busy = shm._bank_busy_until
    icn_latency = shm.interconnect_latency
    l2_interval = shm.l2_service_interval
    l2_latency = shm.l2_latency
    channels = shm.dram.channels
    num_channels = shm.dram.num_channels
    dram_line = shm.dram.line_bytes
    dram_tracks = [f"dram-ch{i}" for i in range(num_channels)]
    never = float("inf")

    def access(paddr, start, warp_id):
        index = (paddr >> l1_shift) & l1_mask
        cache_set = l1_sets.get(index)
        if cache_set is None:
            cache_set = l1_sets[index] = {}
        if paddr in cache_set:
            l1.hits += 1
            cache_set[paddr] = cache_set.pop(paddr)  # move to MRU
            if traced:
                record(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        core_id,
                        l1_label,
                        None,
                        {"line": paddr, "hit": True, "warp": warp_id},
                    )
                )
            mem.l1_hits += 1
            return start + l1_latency, "l1", None, None
        l1.misses += 1
        ev_line = ev_warp = None
        if len(cache_set) >= l1_assoc:
            ev_line = next(iter(cache_set))
            ev_warp = cache_set.pop(ev_line)
        cache_set[paddr] = warp_id
        mem.l1_misses += 1
        if traced:
            record(
                (
                    _ev.CACHE_ACCESS,
                    _trace.NOW,
                    core_id,
                    l1_label,
                    None,
                    {
                        "line": paddr,
                        "hit": False,
                        "warp": warp_id,
                        "evicted": ev_line,
                    },
                )
            )
            expire(start)
        elif start >= mshrs._min_ready:
            while heap and heap[0][0] <= start:
                ready, line = _heappop(heap)
                if inflight.get(line) == ready:
                    del inflight[line]
            mshrs._min_ready = heap[0][0] if heap else never
        merge_ready = inflight.get(paddr)
        if merge_ready is not None:
            mshrs.merges += 1
            if traced:
                record(
                    (
                        _ev.MSHR_MERGE,
                        start,
                        core_id,
                        "mshr",
                        None,
                        {"line": paddr, "ready": merge_ready},
                    )
                )
            ready = merge_ready if merge_ready > start else start + l1_latency
            mem.total_miss_latency += ready - start
            return ready, "l1-mshr", ev_line, ev_warp
        if len(inflight) < mshr_capacity:
            slot_free = start
        else:
            mshrs.stalls += 1
            # Exact earliest fill among live entries: the heap top,
            # after discarding stale (lazily deleted) entries.
            while True:
                ready0, line0 = heap[0]
                if inflight.get(line0) == ready0:
                    slot_free = ready0
                    break
                _heappop(heap)
        # Shared levels: interconnect, L2 bank port, bank lookup, DRAM.
        channel = (paddr // dram_line) % num_channels
        arrive = start + icn_latency
        busy = bank_busy[channel]
        service_start = arrive if arrive > busy else busy
        bank_busy[channel] = service_start + l2_interval
        bank = banks[channel]
        bank_index = (paddr >> bank_shift) & bank_mask
        bank_sets = bank._sets
        bank_set = bank_sets.get(bank_index)
        if bank_set is None:
            bank_set = bank_sets[bank_index] = {}
        if paddr in bank_set:
            bank.hits += 1
            bank_set[paddr] = bank_set.pop(paddr)
            shm.l2_hits += 1
            shared_ready = service_start + l2_latency
            level = "l2"
        else:
            bank.misses += 1
            bank_evicted = None
            if len(bank_set) >= bank_assoc:
                bank_evicted = next(iter(bank_set))
                del bank_set[bank_evicted]
            bank_set[paddr] = None
            shm.l2_misses += 1
            dram_channel = channels[channel]
            dram_now = service_start + l2_latency
            dram_busy = dram_channel.busy_until
            dram_start = dram_now if dram_now >= dram_busy else dram_busy
            dram_channel.total_queue_delay += dram_start - dram_now
            dram_channel.busy_until = dram_start + dram_channel.service_interval
            dram_channel.requests += 1
            shared_ready = dram_start + dram_channel.access_latency + icn_latency
            level = "dram"
        ready = slot_free + l1_latency
        if shared_ready > ready:
            ready = shared_ready
        if traced:
            # The shared levels' events, the retirements up to the
            # allocating cycle, then the allocation (which counts the
            # new entry, inserted just below).
            args = {"line": paddr, "hit": level == "l2", "warp": None}
            if level == "dram":
                args["evicted"] = bank_evicted
            record(
                (_ev.CACHE_ACCESS, _trace.NOW, core_id, bank_labels[channel], None, args)
            )
            if level == "dram":
                record(
                    (
                        _ev.DRAM_ACCESS,
                        dram_start,
                        core_id,
                        dram_tracks[channel],
                        dram_channel.access_latency,
                        {"line": paddr, "queued": dram_start - dram_now},
                    )
                )
            expire(slot_free)
            record(
                (
                    _ev.MSHR_ALLOC,
                    slot_free,
                    core_id,
                    "mshr",
                    None,
                    {
                        "line": paddr,
                        "ready": ready,
                        "outstanding": len(inflight) + 1,
                    },
                )
            )
        elif slot_free >= mshrs._min_ready:
            while heap and heap[0][0] <= slot_free:
                ready0, line0 = _heappop(heap)
                if inflight.get(line0) == ready0:
                    del inflight[line0]
            mshrs._min_ready = heap[0][0] if heap else never
        inflight[paddr] = ready
        _heappush(heap, (ready, paddr))
        if ready < mshrs._min_ready:
            mshrs._min_ready = ready
        mshrs.allocations += 1
        mem.total_miss_latency += ready - start
        return ready, level, ev_line, ev_warp

    return access


class EventEngine(SimEngine):
    """Event-driven issue loop, byte-identical to :class:`CycleEngine`."""

    name = "event"
    FEATURES = frozenset(
        {"trace", "spans", "sampling", "profile", "snapshot"}
    )

    def __init__(self, core):
        super().__init__(core)
        self._coal = _COAL_CACHES.setdefault(
            (core.line_bytes, core.page_shift), {}
        )

    # -- execution -----------------------------------------------------

    def run(self, poll=None):
        self._drive(poll, None)
        return self.core._finalize_run()

    def step_to(self, cycle: int, poll=None) -> int:
        self._drive(poll, cycle)
        return self.core._now

    def _drive(self, poll, stop_at) -> None:
        core = self.core
        if not core._run_begun:
            core.begin_run()
        # The loop allocates at a very high rate (trace tuples, span
        # fills, heap entries) but creates no reference cycles, so the
        # cyclic collector only burns time rescanning the trace ring's
        # retained window over and over.  Refcounting frees everything
        # that matters; park the collector for the bounded loop.
        was_collecting = _gc.isenabled()
        if was_collecting:
            _gc.disable()
        try:
            self._loop(poll, stop_at)
        finally:
            if was_collecting:
                _gc.enable()

    # -- vectorized coalesce precompute --------------------------------

    def _precompute(self, entries) -> None:
        """Batch the address math of every memory instruction in
        ``entries`` (live-list entries; ``entry[1]`` is the trace).

        Line masking and VPN extraction run as two whole-matrix int64
        operations; per-row first-occurrence dedupe then reconstructs
        exactly what :func:`repro.gpu.coalescer.coalesce` returns.
        Rows with inactive (None) lanes, ragged widths, or addresses
        beyond int64 take the scalar coalescer — same result either way.
        """
        core = self.core
        cache = self._coal
        if len(cache) > _COAL_CACHE_LIMIT:
            cache.clear()
        line_bytes = core.line_bytes
        page_shift = core.page_shift
        todo: List[MemoryInstruction] = []
        for entry in entries:
            for instr in entry[1]:
                if instr.__class__ is ComputeInstruction:
                    continue
                key = id(instr)
                cached = cache.get(key)
                if cached is not None and cached[0] is instr:
                    continue
                todo.append(instr)
        if not todo:
            return
        sparse: List[MemoryInstruction] = []
        dense: List[MemoryInstruction] = []
        rows: List[tuple] = []
        width = None
        for instr in todo:
            addrs = instr.addresses
            if None in addrs:
                sparse.append(instr)
                continue
            if width is None:
                width = len(addrs)
            if len(addrs) != width:
                sparse.append(instr)
                continue
            dense.append(instr)
            rows.append(addrs)
        if _np is not None and dense:
            try:
                mat = _np.asarray(rows, dtype=_np.int64)
            except OverflowError:
                sparse.extend(dense)
            else:
                line_rows = (mat & ~_np.int64(line_bytes - 1)).tolist()
                vpn_rows = (mat >> page_shift).tolist()
                for instr, line_row, vpn_row in zip(dense, line_rows, vpn_rows):
                    vpns: Dict[int, None] = {}
                    by_vpn: Dict[int, Dict[int, None]] = {}
                    for line, vpn in zip(line_row, vpn_row):
                        vpns[vpn] = None
                        sub = by_vpn.get(vpn)
                        if sub is None:
                            sub = by_vpn[vpn] = {}
                        sub[line] = None
                    cache[id(instr)] = (
                        instr,
                        CoalescedAccess(
                            lines=tuple(dict.fromkeys(line_row)),
                            vpns=tuple(vpns),
                            lines_by_vpn={
                                vpn: tuple(sub) for vpn, sub in by_vpn.items()
                            },
                        ),
                    )
        else:
            sparse.extend(dense)
        for instr in sparse:
            cache[id(instr)] = (
                instr,
                coalesce(instr.addresses, line_bytes, page_shift),
            )

    def _live_entries(self, warps) -> List[tuple]:
        """Live-list entries ``(warp, instructions, warp_id, n_instrs)``
        for the unfinished ``warps``, their coalescing precomputed."""
        live: List[tuple] = []
        for w in warps:
            instrs = w.trace.instructions
            if w.pc < len(instrs):
                live.append((w, instrs, w.trace.warp_id, len(instrs)))
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_COALESCE)
        self._precompute(live)
        if _prof.ENABLED:
            _prof.end()
        return live

    def _readiness_split(self, now: int):
        """Split the core's live warps by readiness at ``now``.

        Returns ``(ready_entries, wait_heap, next_seq)``:
        ``ready_entries`` holds (seq, entry) pairs for warps whose
        ready_at has passed (scanned for candidates each iteration),
        ``wait_heap`` holds the rest as (ready_at, seq, entry) keyed by
        ready_at (drained as the clock advances).  ``seq`` is the
        entry's creation rank, which follows its warp's position in
        core.warps (warps only ever append), and ready_entries stays
        sorted by it — so candidate order is exactly the reference
        loop's live order.  That ordering is load-bearing: TBC
        compaction can field two live warps with the SAME hardware
        warp_id, and every stock policy breaks such ties by
        candidate-list position.
        """
        ready_entries: List[tuple] = []
        wait_heap: List[tuple] = []
        live = self._live_entries(self.core.warps)
        for seq, entry in enumerate(live):
            ready_at = entry[0].ready_at
            if ready_at > now:
                wait_heap.append((ready_at, seq, entry))
            else:
                ready_entries.append((seq, entry))
        heapify(wait_heap)
        return ready_entries, wait_heap, len(live)

    # -- the issue loop ------------------------------------------------

    def _loop(self, poll, stop_at) -> None:
        """Event-driven replay of the reference loop's decisions.

        The loop-top clock sequence is exactly the reference loop's
        (every iteration either issues or jumps, 1:1), so the trace
        context and the interval sampler see the identical cycle
        visits; WARP_STALL pairs fire on idle jumps and
        SCHEDULER_DECISION after every selection.  With ``stop_at``
        set, returns at the first safe point whose clock is at or past
        it, locals synced back to the core.
        """
        core = self.core
        watchdog = core._watchdog
        cfg = core.config
        blocking = cfg.tlb.enabled and cfg.tlb.blocking
        warmup_budget = core._warmup_budget
        now = core._now
        finish = core._finish
        issued_total = core._issued_total
        measuring = core._measuring
        stats = core.stats
        events = self._events
        sched = core.scheduler
        rr = type(sched) is RoundRobinScheduler
        num_warps = sched.num_warps
        policy = cfg.scheduler.kind
        core_id = core.core_id
        sampler = core.sampler
        traced = _trace.ENABLED
        record = _trace.RECORD
        profiled = _prof.ENABLED
        warps = core.warps
        issue_memory = self._build_issue_memory(traced, profiled)
        cand_cache: Dict[int, Candidate] = {}
        ready_entries, wait_heap, seq = self._readiness_split(now)

        while True:
            if stop_at is not None and now >= stop_at:
                break
            if poll is not None or (events and events[0][0] <= now):
                core._now = now
                core._finish = finish
                core._issued_total = issued_total
                core._measuring = measuring
                if events and events[0][0] <= now:
                    self._dispatch_events(now)
                    # A callback may have launched warps or changed
                    # ready times: rebuild the readiness split.
                    warps = core.warps
                    ready_entries, wait_heap, seq = self._readiness_split(now)
                if poll is not None:
                    poll(core)
            if traced:
                _trace.CORE = core_id
                _trace.NOW = now
            if sampler is not None and now >= sampler._next:
                sampler.maybe_sample(now, core.stats)
            while wait_heap and wait_heap[0][0] <= now:
                item = _heappop(wait_heap)
                _insort(ready_entries, (item[1], item[2]))
            chosen = None
            n_cands = 0
            if not ready_entries:
                if not wait_heap:
                    break
                min_wait = wait_heap[0][0]
            else:
                min_wait = wait_heap[0][0] if wait_heap else -1
                if blocking and now < core.tlb_blocked_until:
                    # The reference loop's candidates: memory warps are
                    # held back while a blocking TLB resolves its misses.
                    pool = [
                        pair
                        for pair in ready_entries
                        if pair[1][1][pair[1][0].pc].__class__
                        is ComputeInstruction
                    ]
                else:
                    pool = ready_entries
                n_cands = len(pool)
                if not n_cands:
                    pass
                elif rr:
                    # Inline round robin: min() by distance over the
                    # live-ordered candidates; a strict-< scan matches
                    # min()'s first-of-equals tie-break (TBC can
                    # duplicate warp ids).
                    best = 0
                    if n_cands > 1:
                        nxt = sched._next
                        best_key = num_warps
                        idx = 0
                        for pair in pool:
                            key = (pair[1][2] - nxt) % num_warps
                            if key < best_key:
                                best_key = key
                                best = idx
                            idx += 1
                    chosen = pool[best]
                    chosen_id = chosen[1][2]
                    sched._next = (chosen_id + 1) % num_warps
                else:
                    # Every other policy: the real select() with the
                    # reference loop's exact candidate list and in-flight
                    # flag; it may throttle (return None).  Candidate is
                    # frozen, so per-(warp, is_memory) instances are
                    # built once and reused.
                    if profiled:
                        _prof.begin(_prof.PHASE_WARP_SCHED)
                    cand_list = []
                    for pair in pool:
                        entry = pair[1]
                        warp_id = entry[2]
                        key = (warp_id << 1) | isinstance(
                            entry[1][entry[0].pc], MemoryInstruction
                        )
                        candidate = cand_cache.get(key)
                        if candidate is None:
                            candidate = cand_cache[key] = Candidate(
                                warp_id, bool(key & 1)
                            )
                        cand_list.append(candidate)
                    chosen_id = sched.select(cand_list, now, min_wait >= 0)
                    if profiled:
                        _prof.end()
                    if chosen_id is not None:
                        for chosen in pool:
                            if chosen[1][2] == chosen_id:
                                break
                        else:  # the reference's next() raises too
                            raise LookupError(
                                f"scheduler chose non-candidate {chosen_id}"
                            )
                if traced and n_cands:
                    # The decision event the reference loop emits after
                    # its select() call (a throttle included).
                    record(
                        (
                            _ev.SCHEDULER_DECISION,
                            now,
                            core_id,
                            "sched",
                            None,
                            {
                                "policy": policy,
                                "chosen": chosen_id,
                                "candidates": n_cands,
                            },
                        )
                    )
            if chosen is None:
                # Nothing issues: jump to the next event.  Identical
                # accounting to the reference loop's stall branches:
                # candidates without a choice are a throttle; no
                # candidates at all reach its no-candidate branch, which
                # always has blocked_only True here.
                if watchdog is not None:
                    watchdog.check(now, core._hang_diagnostics)
                throttled = n_cands > 0
                if throttled:
                    next_event = min_wait if min_wait >= 0 else now + 1
                else:
                    if profiled:
                        _prof.begin(_prof.PHASE_EVENT_SKIP)
                    tbu = core.tlb_blocked_until
                    tlb_blocked = blocking and tbu > now
                    if tlb_blocked:
                        if min_wait < 0 or tbu < min_wait:
                            next_event = tbu
                        else:
                            next_event = min_wait
                        stats.tlb_blocked_wait_cycles += (
                            next_event if next_event < tbu else tbu
                        ) - now
                    elif min_wait >= 0:
                        next_event = min_wait
                    else:
                        next_event = now + 1
                stats.idle_cycles += next_event - now
                if traced:
                    core._stall_seq += 1
                    if throttled:
                        reason = "throttled"
                    else:
                        reason = "tlb_blocked" if tlb_blocked else "memory"
                    record(
                        (
                            _ev.WARP_STALL_BEGIN,
                            now,
                            core_id,
                            "core",
                            None,
                            {
                                "id": core._stall_seq,
                                "reason": reason,
                                "live": len(ready_entries) + len(wait_heap),
                            },
                        )
                    )
                    record(
                        (
                            _ev.WARP_STALL_END,
                            next_event,
                            core_id,
                            "core",
                            None,
                            {"id": core._stall_seq},
                        )
                    )
                if profiled and not throttled:
                    _prof.end()
                now = next_event
                continue
            # ready_entries is sorted by the unique seq, so a filtered
            # pool's choice is found by bisection.
            if rr and pool is ready_entries:
                del ready_entries[best]
            else:
                del ready_entries[_bisect_left(ready_entries, chosen)]
            entry_seq, entry = chosen
            warp = entry[0]
            instr = entry[1][warp.pc]
            if instr.__class__ is ComputeInstruction:
                latency = instr.latency
                warp.ready_at = now + latency
                stats.scalar_instructions += latency
                advance = latency
            else:
                warp.ready_at = issue_memory(warp, instr, now, entry[2], stats)
                stats.memory_instructions += 1
                stats.scalar_instructions += 1
                advance = 1
            stats.instructions += 1
            if watchdog is not None:
                watchdog.last_progress = now
            warp.issued += 1
            warp.pc += 1
            if warp.ready_at > finish:
                finish = warp.ready_at
            if warp.pc >= entry[3]:
                before = len(warps)
                core._warp_retired(warp, now)
                if len(warps) > before:
                    for new_entry in self._live_entries(warps[before:]):
                        ready_at = new_entry[0].ready_at
                        if ready_at > now:
                            _heappush(wait_heap, (ready_at, seq, new_entry))
                        else:
                            _insort(ready_entries, (seq, new_entry))
                        seq += 1
            else:
                ready_at = warp.ready_at
                if ready_at > now:
                    _heappush(wait_heap, (ready_at, entry_seq, entry))
                else:
                    _insort(ready_entries, (entry_seq, entry))
            now += advance
            issued_total += 1
            if not measuring and issued_total >= warmup_budget:
                measuring = True
                core._begin_measurement(now)
                stats = core.stats  # _begin_measurement replaces it
        core._now = now
        core._finish = finish
        core._issued_total = issued_total
        core._measuring = measuring

    # -- the memory path -----------------------------------------------

    def _build_issue_memory(self, traced: bool, profiled: bool):
        """Build this run's ``issue_memory(warp, instr, now, warp_id,
        stats) -> completion``: an inline replica of
        ShaderCore._issue_memory / _issue_translated.

        Every counter increment and every LRU / insertion-order /
        busy-window mutation happens in the exact order of the reference
        path, and so does every observation the bound flags enable:
        scheduler memory-side hooks, TraceEvent emissions (same kinds,
        stamps, tracks, args, and ordering as the cycle engine's), span
        fills handed to the shared ``_record_spans`` assembler, and the
        fault injector consulted at the reference points (shootdown
        before the lookup batch; invalidations inside ``_fill_tlb``,
        which runs unchanged via ``_handle_misses``, as does
        ``on_tlb_evict``).
        """
        core = self.core
        mem = core.memory
        if mem.l1._line_shift is None or mem.shared.l2_banks[0]._line_shift is None:
            # Non-power-of-two geometry (the L2 banks are built alike):
            # the shift/mask set index does not apply, so lines take the
            # hierarchy's real access method, still inside the loop.
            def fallback(warp, instr, now, warp_id, stats):
                return core._issue_memory(warp, instr, now)

            return fallback

        access = _build_access(core, traced)
        record = _trace.RECORD
        spanned = _spans.ENABLED
        injector = core._injector
        sched = core.scheduler
        on_l1 = _hook(sched, "on_l1_access")
        on_tlb_hit = _hook(sched, "on_tlb_hit")
        on_tlb_miss = _hook(sched, "on_tlb_miss")
        # LRU stack depth from the MRU end (TCWS's depth-weighted
        # scoring, the trace's lookup events), computed before the
        # reinsertion disturbs the order, as the reference lookup does.
        want_depth = on_tlb_hit is not None or traced
        # Whether a cache line has observers at all: the L1 hook, or the
        # span fills of a missed translation.
        line_observed = on_l1 is not None or spanned
        coal_cache = self._coal
        core_id = core.core_id
        line_bytes = core.line_bytes
        page_shift = core.page_shift
        page_mask = core.page_mask
        frame_map = core.frame_map
        cpm = core.cpm
        tlb = core.tlb
        if tlb is not None:
            tlb_sets = tlb._sets
            num_sets = tlb.num_sets
        tlb_cfg = core.config.tlb
        ports = tlb_cfg.ports
        extra_latency = core.tlb_extra_latency
        tlb_blocking = tlb_cfg.enabled and tlb_cfg.blocking
        cache_overlap = tlb_cfg.cache_overlap

        def issue_memory(warp, instr, now, warp_id, stats) -> int:
            cached = coal_cache.get(id(instr))
            if cached is None or cached[0] is not instr:
                cached = (instr, coalesce(instr.addresses, line_bytes, page_shift))
                coal_cache[id(instr)] = cached
            coal = cached[1]
            vpns = coal.vpns
            lines = coal.lines
            n_pages = len(vpns)
            stats.page_divergence_sum += n_pages
            if n_pages > stats.page_divergence_max:
                stats.page_divergence_max = n_pages
            stats.coalesced_lines += len(lines)
            if traced:
                record(
                    (
                        _ev.MEM_COALESCE,
                        now,
                        core_id,
                        "coalescer",
                        None,
                        {"warp": warp_id, "pages": n_pages, "lines": len(lines)},
                    )
                )

            if tlb is None:
                # No-TLB baseline: pinned physical memory, zero
                # translation cost; lines issue one per cycle.
                completion = now
                for offset, line in enumerate(lines):
                    pfn = frame_map.get(line >> page_shift)
                    if pfn is not None:
                        line = (pfn << 12) + (line & page_mask)
                    ready, level, ev_line, ev_warp = access(
                        line, now + offset, warp_id
                    )
                    if on_l1 is not None:
                        on_l1(warp_id, line, level == "l1", False, ev_line, ev_warp)
                    if ready > completion:
                        completion = ready
                return completion

            shootdown = False
            if injector is not None and injector.tlb_shootdown(core_id):
                # Full-TLB shootdown: every cached translation on this
                # core is dropped before the lookup.
                tlb.flush()
                core._shootdowns += 1
                shootdown = True
                if traced:
                    record(
                        (
                            _ev.FAULT_INJECT,
                            now,
                            core_id,
                            "faults",
                            None,
                            {"fault": "tlb_shootdown", "core": core_id},
                        )
                    )
            if profiled:
                _prof.begin(_prof.PHASE_TLB)
            origins = (
                core._vpn_origins(instr, vpns)
                if instr.origins is not None
                else _EMPTY_ORIGINS
            )

            if n_pages == 1:
                # Single-page instruction (the common case for coalesced
                # streams): no translation/ready maps, one direct probe.
                # ceil(1 / ports) == 1, and with one vpn the overlap and
                # serial cache stages walk the same lines with the same
                # availability, so both collapse to one loop.
                vpn = vpns[0]
                port_busy = core.tlb_port_busy_until
                port_start = now if now > port_busy else port_busy
                core.tlb_port_busy_until = port_start + 1
                tlb_done = port_start + extra_latency + 1
                stats.tlb_lookups += 1
                if cpm is not None:
                    cpm.maybe_flush(now)
                history_id = origins.get(vpn, warp_id) if origins else warp_id
                tlb_set = tlb_sets.get(vpn % num_sets)
                if tlb_set is not None and vpn in tlb_set:
                    tlb.hits += 1
                    if want_depth:
                        depth = 0
                        for resident_vpn in reversed(tlb_set):
                            if resident_vpn == vpn:
                                break
                            depth += 1
                    entry = tlb_set.pop(vpn)
                    history = entry.history
                    prior = tuple(history) if cpm is not None else ()
                    if history_id in history:
                        history.remove(history_id)
                    history.insert(0, history_id)
                    del history[HISTORY_LENGTH:]
                    tlb_set[vpn] = entry  # move to MRU
                    stats.tlb_hits += 1
                    if want_depth:
                        if traced:
                            record(
                                (
                                    _ev.TLB_LOOKUP,
                                    now,
                                    core_id,
                                    "tlb",
                                    None,
                                    {
                                        "vpn": vpn,
                                        "hit": True,
                                        "depth": depth,
                                        "warp": history_id,
                                    },
                                )
                            )
                        if on_tlb_hit is not None:
                            on_tlb_hit(warp_id, vpn, depth)
                    if cpm is not None and prior:
                        cpm.update(history_id, prior)
                    pfn_base = entry.pfn << 12
                    available = tlb_done
                    tlb_missed = False
                else:
                    tlb.misses += 1
                    stats.tlb_misses += 1
                    if on_tlb_miss is not None:
                        on_tlb_miss(warp_id, vpn)
                    if traced:
                        record(
                            (
                                _ev.TLB_LOOKUP,
                                now,
                                core_id,
                                "tlb",
                                None,
                                {"vpn": vpn, "hit": False, "warp": history_id},
                            )
                        )
                        record(
                            (
                                _ev.TLB_MISS_BEGIN,
                                tlb_done,
                                core_id,
                                "tlb",
                                None,
                                {"vpn": vpn, "warp": warp_id},
                            )
                        )
                    walk_ready = core._handle_misses(warp, [vpn], tlb_done, origins)
                    pfn, resolved = walk_ready[vpn]
                    stats.total_tlb_miss_cycles += resolved - tlb_done
                    if traced:
                        record(
                            (
                                _ev.TLB_MISS_END,
                                resolved,
                                core_id,
                                "tlb",
                                None,
                                {"vpn": vpn, "latency": resolved - tlb_done},
                            )
                        )
                    all_ready = resolved if resolved > tlb_done else tlb_done
                    if tlb_blocking and all_ready > core.tlb_blocked_until:
                        core.tlb_blocked_until = all_ready
                    pfn_base = pfn << 12
                    # The overlap stage uses the page's own fill time,
                    # the serial stage the (clamped) barrier; identical
                    # unless a walk resolves before the lookup completes.
                    available = resolved if cache_overlap else all_ready
                    tlb_missed = True
                if profiled:
                    _prof.end()
                    _prof.begin(_prof.PHASE_CACHE)
                completion = tlb_done
                cursor = now
                fills = [] if (spanned and tlb_missed) else None
                for line in lines:
                    cursor += 1
                    paddr = pfn_base + (line & page_mask)
                    ready, level, ev_line, ev_warp = access(paddr, cursor, warp_id)
                    fill_start = available if available > cursor else cursor
                    line_end = fill_start + ready - cursor
                    if line_end > completion:
                        completion = line_end
                    if line_observed:
                        if on_l1 is not None:
                            on_l1(
                                warp_id, paddr, level == "l1", tlb_missed,
                                ev_line, ev_warp
                            )
                        if fills is not None:
                            fills.append((level, fill_start, line_end))
                if profiled:
                    _prof.end()
                if tlb_missed:
                    stall = all_ready - tlb_done
                    if stall > 0:
                        stats.tlb_miss_stall_cycles += stall
                    if fills is not None:
                        core._record_spans(
                            warp,
                            coal,
                            now,
                            port_start,
                            tlb_done,
                            1,
                            walk_ready,
                            {vpn: fills} if fills else {},
                            completion,
                            shootdown,
                        )
                return completion

            lookup_cycles = -(-n_pages // ports)  # ceil division
            # The TLB's read ports arbitrate across warps: a lookup batch
            # occupies them for lookup_cycles, queueing behind earlier
            # batches still in flight.
            port_busy = core.tlb_port_busy_until
            port_start = now if now > port_busy else port_busy
            core.tlb_port_busy_until = port_start + lookup_cycles
            tlb_done = port_start + extra_latency + lookup_cycles
            stats.tlb_lookups += n_pages
            if cpm is not None:
                cpm.maybe_flush(now)
            translations: Dict[int, int] = {}
            page_ready: Dict[int, int] = {}
            misses: Optional[List[int]] = None
            for vpn in vpns:
                history_id = origins.get(vpn, warp_id) if origins else warp_id
                tlb_set = tlb_sets.get(vpn % num_sets)
                if tlb_set is None or vpn not in tlb_set:
                    tlb.misses += 1
                    if traced:
                        record(
                            (
                                _ev.TLB_LOOKUP,
                                now,
                                core_id,
                                "tlb",
                                None,
                                {"vpn": vpn, "hit": False, "warp": history_id},
                            )
                        )
                    stats.tlb_misses += 1
                    if on_tlb_miss is not None:
                        on_tlb_miss(warp_id, vpn)
                    if misses is None:
                        misses = [vpn]
                    else:
                        misses.append(vpn)
                    continue
                tlb.hits += 1
                if want_depth:
                    depth = 0
                    for resident_vpn in reversed(tlb_set):
                        if resident_vpn == vpn:
                            break
                        depth += 1
                entry = tlb_set.pop(vpn)
                history = entry.history
                prior = tuple(history) if cpm is not None else ()
                if history_id in history:
                    history.remove(history_id)
                history.insert(0, history_id)
                del history[HISTORY_LENGTH:]
                tlb_set[vpn] = entry  # move to MRU
                stats.tlb_hits += 1
                if want_depth:
                    if traced:
                        record(
                            (
                                _ev.TLB_LOOKUP,
                                now,
                                core_id,
                                "tlb",
                                None,
                                {
                                    "vpn": vpn,
                                    "hit": True,
                                    "depth": depth,
                                    "warp": history_id,
                                },
                            )
                        )
                    if on_tlb_hit is not None:
                        on_tlb_hit(warp_id, vpn, depth)
                if cpm is not None and prior:
                    cpm.update(history_id, prior)
                translations[vpn] = entry.pfn
                page_ready[vpn] = tlb_done
            if misses is not None:
                if traced:
                    for vpn in misses:
                        record(
                            (
                                _ev.TLB_MISS_BEGIN,
                                tlb_done,
                                core_id,
                                "tlb",
                                None,
                                {"vpn": vpn, "warp": warp_id},
                            )
                        )
                walk_ready = core._handle_misses(warp, misses, tlb_done, origins)
                all_ready = tlb_done
                for vpn, resolved in walk_ready.items():
                    pfn, ready = resolved
                    translations[vpn] = pfn
                    page_ready[vpn] = ready
                    stats.total_tlb_miss_cycles += ready - tlb_done
                    if traced:
                        record(
                            (
                                _ev.TLB_MISS_END,
                                ready,
                                core_id,
                                "tlb",
                                None,
                                {"vpn": vpn, "latency": ready - tlb_done},
                            )
                        )
                    if ready > all_ready:
                        all_ready = ready
                if tlb_blocking and all_ready > core.tlb_blocked_until:
                    # A blocking TLB services nothing until its misses
                    # resolve.
                    core.tlb_blocked_until = all_ready
                missed = set(misses)
            else:
                all_ready = tlb_done
                missed = ()
            if profiled:
                _prof.end()
                _prof.begin(_prof.PHASE_CACHE)

            # Cache stage.  Without cache_overlap every line waits for
            # all translations; with it, lines of TLB-hitting pages go at
            # once.  Queue state is sampled in present time; the
            # translation wait is then added as a serial shift.
            completion = tlb_done
            cursor = now
            span_fills: Optional[Dict[int, list]] = (
                {vpn: [] for vpn in misses}
                if (spanned and misses is not None)
                else None
            )
            if cache_overlap:
                lines_by_vpn = coal.lines_by_vpn
                for vpn in vpns:
                    available_at = page_ready[vpn]
                    pfn_base = translations[vpn] << 12
                    tlb_missed = vpn in missed
                    fills = span_fills.get(vpn) if span_fills is not None else None
                    for line in lines_by_vpn[vpn]:
                        cursor += 1
                        paddr = pfn_base + (line & page_mask)
                        ready, level, ev_line, ev_warp = access(
                            paddr, cursor, warp_id
                        )
                        fill_start = (
                            available_at if available_at > cursor else cursor
                        )
                        line_end = fill_start + ready - cursor
                        if line_end > completion:
                            completion = line_end
                        if line_observed:
                            if on_l1 is not None:
                                on_l1(
                                    warp_id, paddr, level == "l1", tlb_missed,
                                    ev_line, ev_warp
                                )
                            if fills is not None:
                                fills.append((level, fill_start, line_end))
            else:
                for line in lines:
                    vpn = line >> page_shift
                    cursor += 1
                    paddr = (translations[vpn] << 12) + (line & page_mask)
                    ready, level, ev_line, ev_warp = access(paddr, cursor, warp_id)
                    fill_start = all_ready if all_ready > cursor else cursor
                    line_end = fill_start + ready - cursor
                    if line_end > completion:
                        completion = line_end
                    if line_observed:
                        if on_l1 is not None:
                            on_l1(
                                warp_id, paddr, level == "l1", vpn in missed,
                                ev_line, ev_warp
                            )
                        if span_fills is not None and vpn in span_fills:
                            span_fills[vpn].append((level, fill_start, line_end))
            if profiled:
                _prof.end()
            if misses is not None:
                stall = all_ready - tlb_done
                if stall > 0:
                    stats.tlb_miss_stall_cycles += stall
                if span_fills is not None:
                    core._record_spans(
                        warp,
                        coal,
                        now,
                        port_start,
                        tlb_done,
                        lookup_cycles,
                        walk_ready,
                        span_fills,
                        completion,
                        shootdown,
                    )
            return completion

        return issue_memory
