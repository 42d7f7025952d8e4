"""The event-driven engine: next-event advancement, memoized coalescing.

Byte-identity is the contract.  The cycle loop already *decides*
sparsely — most iterations either issue exactly one instruction or jump
the clock to the next warp-ready event — so this engine replays the
identical decision sequence with cheaper mechanics and produces results
(CoreStats, result JSON, spans, traces) indistinguishable from the
cycle engine's.  Three mechanical changes carry the speedup:

- **No per-iteration scan.**  The cycle loop re-filters the live-warp
  list and re-allocates candidate wrappers every iteration; here a
  waiting warp sits in a ready-time heap (drained as the clock
  advances) and a ready one in one of two sorted ready lists, split by
  whether a blocking TLB holds it back (its next instruction is a
  memory one).  Items are ``(key, seq, entry, candidate)``: ``key`` is
  the warp id under round robin, which then picks by bisection, and 0
  otherwise, so every other policy gets its candidate list, built once
  per item, in creation order; while a blocking TLB resolves its
  misses, the candidates are simply the list it does not hold back.

- **Memoized coalescing.**  A memory instruction is coalesced on its
  first issue and the result memoized by its lane-address tuple, so
  equal lanes — in a later cell, another build, or a warp TBC forms
  afresh — coalesce nothing twice.  An entry keeps only the pages, the
  line count, compact page runs and each page's first lane (a formed
  warp's page owners come from it, with no lane scan).

- **Inlined memory path.**  Two places, where measurement shows it
  pays, are replicated inline (every state mutation in the exact
  reference order): the per-page TLB probe and the per-line L1, MSHR,
  L2 bank and DRAM channel transitions, instead of crossing up to five
  method-call layers per page or line; the L1, L2 and MSHR counters are
  summed in locals and added to their objects once per instruction.
  Every set-associative structure keeps a preallocated list of per-set
  dicts, bound once per run and reached by one list index (which is
  why their ``flush`` empties the sets in place).  The rest of
  translation is the reference core's own code:
  ``ShaderCore._inject_shootdown`` before a lookup batch and
  ``ShaderCore._handle_misses`` for its misses, whose walkers issue
  each load through ``SharedMemory.walk_load``; a TLB entry's warp
  history is updated only when the core keeps it (the TLB's
  ``keep_history``, decided by the core for both engines).

There is one issue loop (:meth:`EventEngine._loop`) and one memory path:
an ``issue_memory`` closure, built at every ``run()`` entry, whose one
probe loop takes every translated instruction's pages through the TLB
and whose one line loop walks page runs and takes each line through
L1, MSHR, L2 bank and DRAM in place, traced or not.  Observers are
installed between runs, never mid-run, so each entry binds what is on
as booleans: tracing (TraceEvents at the cycle engine's exact stamps
and order), the interval sampler (the same loop-top clock visits), span
recording (fills for the shared ``_record_spans`` assembler), fault
injection (the core's shootdown step before each lookup batch,
invalidations inside ``_fill_tlb``), and the scheduler's memory-side
hooks — ``on_l1_access``, ``on_tlb_hit`` and ``on_tlb_miss`` fire, and
the TLB LRU depth is computed, only when the policy overrides the
base-class no-ops (or the tracer needs the depth).  Traces, spans,
histograms and interval series therefore equal the cycle engine's
(``tests/engines/test_observers.py`` pins the raw trace streams), with
no cycle-loop fallback anywhere.

Round robin is selected inline; every other policy (greedy-then-oldest
and the CCWS family) runs through its real ``select()`` with the
reference loop's exact candidate list.  Demand paging needs no flag:
faults surface inside the walker, which is called unchanged.
"""

from __future__ import annotations

import gc as _gc

from bisect import bisect_left as _bisect_left, insort as _insort
from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Dict, List, Tuple

from repro.gpu.coalescer import coalesce
from repro.gpu.instruction import ComputeInstruction
from repro.gpu.scheduler.base import (
    Candidate,
    RoundRobinScheduler,
    policy_hook,
)
from repro.obs import events as _ev
from repro.obs import spans as _spans
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof
from repro.vm.pte import HISTORY_LENGTH

from repro.engines.base import SimEngine

_EMPTY_ORIGINS: Dict[int, int] = {}

#: (line_bytes, page_shift) -> {lane-address tuple: coalesced entry}.
#: Module level so a sweep's cells share the work.  An entry is
#: ``(vpns, n_lines, runs, page_runs, lanes)``: the unique pages in
#: first-lane order, the unique-line count, the unique lines as ``(vpn,
#: offsets)`` page runs, ``offsets`` being ``line & page_mask`` in
#: access order, and each page's first lane.  ``runs`` follows the
#: coalesced line order (the serial and no-TLB stages), ``page_runs``
#: the page order (the overlap stage); they are one object when the two
#: orders agree.
_COAL_CACHES: Dict[Tuple[int, int], Dict[tuple, tuple]] = {}

#: Interned page runs, offsets tuples and offsets (value -> itself):
#: equal runs share one tuple and its ints across every memo entry.
_RUNS: Dict[object, object] = {}

#: Entry cap of each memo dict and of ``_RUNS``; TBC's dynamically
#: formed warps can mint fresh lane tuples every run, and a long-lived
#: server must not grow without bound.  Eviction is a full clear —
#: rebuilding is cheap.
_COAL_CACHE_LIMIT = 250_000


def _shared(value):
    """The interned object equal to ``value``."""
    shared = _RUNS.get(value)
    if shared is None:
        if len(_RUNS) >= _COAL_CACHE_LIMIT:
            _RUNS.clear()
        shared = _RUNS[value] = value
    return shared


def _run(vpn: int, lines, page_mask: int) -> tuple:
    """The interned page run ``(vpn, offsets)`` of ``lines``."""
    offsets = tuple(_shared(line & page_mask) for line in lines)
    return _shared((vpn, _shared(offsets)))


def coalesced_runs(addresses, line_bytes: int, page_shift: int, memo: dict):
    """Build the coalescing memo entry of one lane-address tuple (see
    ``_COAL_CACHES``), store it in ``memo`` and return it."""
    coal = coalesce(addresses, line_bytes, page_shift)
    page_mask = (1 << page_shift) - 1
    serial: List[tuple] = []  # (vpn, lines) in coalesced line order
    for line in coal.lines:
        vpn = line >> page_shift
        if not serial or serial[-1][0] != vpn:
            serial.append((vpn, []))
        serial[-1][1].append(line)
    runs = tuple(_run(vpn, lines, page_mask) for vpn, lines in serial)
    if len(runs) == len(coal.vpns):
        page_runs = runs  # every page's lines are contiguous
    else:
        page_runs = tuple(
            _run(vpn, coal.lines_by_vpn[vpn], page_mask) for vpn in coal.vpns
        )
    vpns = tuple(vpn for vpn, _ in page_runs)  # the runs' int objects
    first_lane: Dict[int, int] = {}  # page -> first lane, ``vpns`` order
    for lane, addr in enumerate(addresses):
        if addr is not None:
            first_lane.setdefault(addr >> page_shift, lane)
    lanes = _shared(tuple(first_lane.values()))
    entry = (vpns, len(coal.lines), runs, page_runs, lanes)
    if len(memo) >= _COAL_CACHE_LIMIT:
        memo.clear()
    memo[addresses] = entry
    return entry


class EventEngine(SimEngine):
    """Event-driven issue loop, byte-identical to :class:`CycleEngine`."""

    name = "event"

    def __init__(self, core):
        super().__init__(core)
        self._coal = _COAL_CACHES.setdefault(
            (core.line_bytes, core.page_shift), {}
        )

    # -- execution -----------------------------------------------------

    def run(self, poll=None) -> int:
        """See :meth:`repro.engines.base.SimEngine.run`."""
        # The loop allocates at a very high rate (trace tuples, span
        # fills, heap entries) but creates no reference cycles, so the
        # cyclic collector only burns time rescanning the trace ring's
        # retained window over and over.  Refcounting frees everything
        # that matters; park the collector for the bounded loop.
        was_collecting = _gc.isenabled()
        if was_collecting:
            _gc.disable()
        try:
            return self._loop(poll)
        finally:
            if was_collecting:
                _gc.enable()

    # -- the issue loop ------------------------------------------------

    def _live_entries(self, warps) -> List[tuple]:
        """Live-list entries ``(warp, instructions, warp_id, n_instrs)``
        for the unfinished ``warps``."""
        live: List[tuple] = []
        for w in warps:
            instrs = w.trace.instructions
            if w.pc < len(instrs):
                live.append((w, instrs, w.trace.warp_id, len(instrs)))
        return live

    def _loop(self, poll) -> int:
        """Event-driven replay of the reference loop's decisions.

        A live warp waits in ``wait_heap`` as ``(ready_at, seq, entry)``
        and, once the clock reaches its ``ready_at``, moves to a ready
        list as ``(key, seq, entry, candidate)``.  ``seq`` is the entry's
        creation rank, which follows its warp's position in core.warps
        (warps only ever append), so a list sorted by ``(key, seq)`` with
        ``key`` 0 is in the reference loop's live order.  That ordering
        is load-bearing: TBC compaction can field two live warps with
        the SAME hardware warp_id, and every stock policy breaks such
        ties by candidate-list position.  ``key`` is the warp id under
        round robin, which picks by bisection, and 0 under every other
        policy.  ``held`` takes the warps a blocking TLB holds back
        (their next instruction is a memory one; without a blocking TLB
        it stays empty) and ``ready`` the rest, so while the TLB
        resolves its misses the candidates are exactly ``ready``.

        The loop-top clock sequence is exactly the reference loop's
        (every iteration either issues or jumps, 1:1), so the trace
        context and the interval sampler see the identical cycle
        visits; WARP_STALL pairs fire on idle jumps and
        SCHEDULER_DECISION after every selection.  Returns the run's
        end cycle.
        """
        core = self.core
        watchdog = core._watchdog
        cfg = core.config
        blocking = cfg.tlb.enabled and cfg.tlb.blocking
        warmup_budget = core._warmup_budget
        now = 0
        finish = 0
        issued_total = 0
        measuring = warmup_budget == 0
        stats = core.stats
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
        # Candidate is frozen: one per (warp id, is_memory), at index
        # ``warp_id << 1 | is_memory``.
        cands = [
            Candidate(warp_id, is_memory)
            for warp_id in range(num_warps)
            for is_memory in (False, True)
        ]
        ready: List[tuple] = []
        held: List[tuple] = []
        wait_heap = [
            (entry[0].ready_at, seq, entry)
            for seq, entry in enumerate(self._live_entries(warps))
        ]
        heapify(wait_heap)
        seq = len(wait_heap)

        while True:
            if poll is not None:
                poll()
            if traced:
                _trace.CORE = core_id
                _trace.NOW = now
            if sampler is not None and now >= sampler._next:
                sampler.maybe_sample(now, core.stats)
            while wait_heap and wait_heap[0][0] <= now:
                _, item_seq, entry = _heappop(wait_heap)
                if rr:
                    item = (entry[2], item_seq, entry, None)
                    hold = (
                        blocking
                        and entry[1][entry[0].pc].__class__ is not ComputeInstruction
                    )
                else:
                    is_memory = (
                        entry[1][entry[0].pc].__class__ is not ComputeInstruction
                    )
                    item = (0, item_seq, entry, cands[entry[2] << 1 | is_memory])
                    hold = blocking and is_memory
                _insort(held if hold else ready, item)
            min_wait = wait_heap[0][0] if wait_heap else -1
            # Held warps are candidates too once the blocking TLB has
            # resolved (``held`` is empty without a blocking TLB).
            both = held and now >= core.tlb_blocked_until
            n_cands = len(ready) + len(held) if both else len(ready)
            chosen = None
            if not n_cands:
                if min_wait < 0 and not held:
                    break
            elif rr:
                # Round robin: min() by distance from sched._next, which
                # is the first warp id at or after it, wrapping; equal
                # ids go in seq order, min()'s first-of-equals.  A list
                # sorted by (warp id, seq) yields it by one bisection.
                nxt = sched._next
                probe = (nxt,)
                source = ready
                if ready:
                    index = _bisect_left(ready, probe)
                    if index == len(ready):
                        index = 0
                if both:
                    other = _bisect_left(held, probe)
                    if other == len(held):
                        other = 0
                    if not ready or (
                        (held[other][0] - nxt) % num_warps,
                        held[other][1],
                    ) < ((ready[index][0] - nxt) % num_warps, ready[index][1]):
                        source, index = held, other
                chosen = source[index]
                chosen_id = chosen[0]
                sched._next = (chosen_id + 1) % num_warps
            else:
                # Every other policy: the real select() with the
                # reference loop's exact candidate list and in-flight
                # flag; it may throttle (return None).
                if both:
                    pool = ready + held
                    pool.sort()
                else:
                    pool = ready
                if profiled:
                    _prof.begin(_prof.PHASE_WARP_SCHED)
                chosen_id = sched.select(
                    [item[3] for item in pool], now, min_wait >= 0
                )
                if profiled:
                    _prof.end()
                if chosen_id is not None:
                    for chosen in pool:
                        if chosen[2][2] == chosen_id:
                            break
                    else:  # the reference's next() raises too
                        raise LookupError(
                            f"scheduler chose non-candidate {chosen_id}"
                        )
                    source = held if both and chosen[3].is_memory else ready
                    index = _bisect_left(source, chosen)
            if traced and n_cands:
                # The decision event the reference loop emits after its
                # select() call (a throttle included).
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
                                "live": len(ready) + len(held) + len(wait_heap),
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
            del source[index]
            entry_seq = chosen[1]
            entry = chosen[2]
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
            # Every warp re-enters through the heap; one ready by now is
            # drained at the next loop top, before any selection.
            if warp.pc < entry[3]:
                _heappush(wait_heap, (warp.ready_at, entry_seq, entry))
            else:
                before = len(warps)
                core._warp_retired(warp, now)
                for new_entry in self._live_entries(warps[before:]):
                    _heappush(wait_heap, (new_entry[0].ready_at, seq, new_entry))
                    seq += 1
            now += advance
            issued_total += 1
            if not measuring and issued_total >= warmup_budget:
                measuring = True
                core._begin_measurement(now)
                stats = core.stats  # _begin_measurement replaces it
        return max(now, finish)

    # -- the memory path -----------------------------------------------

    def _build_issue_memory(self, traced: bool, profiled: bool):
        """Build this run's ``issue_memory(warp, instr, now, warp_id,
        stats) -> completion``: an inline replica of
        ShaderCore._issue_memory / _issue_translated.

        Every LRU / insertion-order / busy-window mutation happens in
        the exact order of the reference path, and so does every
        observation the bound flags enable: scheduler memory-side hooks,
        TraceEvent emissions (same kinds, stamps, tracks, args, and
        ordering as the cycle engine's), span fills handed to the shared
        ``_record_spans`` assembler, and the fault injector consulted at
        the reference points.

        A translated instruction's pages go through one probe loop,
        ``SetAssociativeTLB.lookup`` inline, one page per pass, as in
        ``_issue_translated``.  The steps around it are the core's
        own: ``_inject_shootdown`` before the batch, and for its misses
        ``_handle_misses``, which walks them, fills the TLB through
        ``_fill_tlb`` (injected invalidations, ``on_tlb_evict``), emits
        TLB_MISS_BEGIN/END, charges the miss cycles, holds a blocking
        TLB, and returns when the translations are ready.

        One line loop replicates CoreMemory.access → SharedMemory →
        DRAM, traced or not, and names each line's level as
        :class:`~repro.mem.hierarchy.MemAccessResult` does (``"l1"``,
        ``"l1-mshr"``, ``"l2"``, ``"dram"``) for the span fills and the
        scheduler's hit flag.  The L1, L2 and MSHR counters are summed
        in locals and added to their objects after the loop: only later
        instructions, the measurement start and the result read them.
        Traced, MSHR expiry runs the file's own ``_expire``, which
        emits MSHR_RETIRE in insertion order at each fill time.
        """
        core = self.core
        record = _trace.RECORD
        spanned = _spans.ENABLED
        injector = core._injector
        sched = core.scheduler
        on_l1 = policy_hook(sched, "on_l1_access")
        on_tlb_hit = policy_hook(sched, "on_tlb_hit")
        on_tlb_miss = policy_hook(sched, "on_tlb_miss")
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
            keep_history = tlb.keep_history
        tlb_cfg = core.config.tlb
        ports = tlb_cfg.ports
        extra_latency = core.tlb_extra_latency
        cache_overlap = tlb_cfg.cache_overlap
        mem = core.memory
        l1 = mem.l1
        l1_label = l1.label
        l1_sets = l1._sets
        l1_line = l1.line_bytes
        l1_num_sets = l1.num_sets
        l1_assoc = l1.associativity
        l1_latency = mem.l1_latency
        mshrs = mem.mshrs
        expire = mshrs._expire
        inflight = mshrs._inflight
        heap = mshrs._heap
        mshr_capacity = mshrs.capacity
        shm = mem.shared
        banks = shm.l2_banks
        bank_sets = [bank._sets for bank in banks]
        bank_labels = [bank.label for bank in banks]
        bank_line = banks[0].line_bytes
        bank_num_sets = banks[0].num_sets
        bank_assoc = banks[0].associativity
        bank_busy = shm._bank_busy_until
        icn_latency = shm.interconnect_latency
        l2_interval = shm.l2_service_interval
        l2_latency = shm.l2_latency
        channels = shm.dram.channels
        num_channels = shm.dram.num_channels
        dram_line = shm.dram.line_bytes
        dram_tracks = [f"dram-ch{i}" for i in range(num_channels)]

        def issue_memory(warp, instr, now, warp_id, stats) -> int:
            coal = coal_cache.get(instr.addresses)
            if coal is None:
                if profiled:
                    _prof.begin(_prof.PHASE_COALESCE)
                coal = coalesced_runs(
                    instr.addresses, line_bytes, page_shift, coal_cache
                )
                if profiled:
                    _prof.end()
            vpns, n_lines, runs, page_runs, lanes = coal
            n_pages = len(vpns)
            stats.page_divergence_sum += n_pages
            if n_pages > stats.page_divergence_max:
                stats.page_divergence_max = n_pages
            stats.coalesced_lines += n_lines
            if traced:
                record(
                    (
                        _ev.MEM_COALESCE,
                        now,
                        core_id,
                        "coalescer",
                        None,
                        {"warp": warp_id, "pages": n_pages, "lines": n_lines},
                    )
                )

            # The translation stage leaves the line loop each page's
            # physical base, when its lines may fill (``available``, or
            # per page from ``page_ready``), the missed pages and their
            # span fills, the issue cursor and the completion floor.
            page_ready = span_fills = misses = None
            missed = ()
            if tlb is None:
                # No-TLB baseline: pinned physical memory, zero
                # translation cost; lines issue one per cycle from now.
                if profiled:
                    _prof.begin(_prof.PHASE_CACHE)
                bases = {}
                for vpn in vpns:
                    pfn = frame_map.get(vpn)
                    bases[vpn] = vpn << page_shift if pfn is None else pfn << 12
                cursor = now - 1
                completion = available = now
            else:
                shootdown = injector is not None and core._inject_shootdown(now)
                if profiled:
                    _prof.begin(_prof.PHASE_TLB)
                origins = _EMPTY_ORIGINS
                if instr.origins is not None:
                    # A TBC-formed warp: each page's original warp is its
                    # first lane's, unless that lane has none, which the
                    # reference map skips.
                    lane_origins = instr.origins
                    origins = {
                        vpn: lane_origins[lane] for vpn, lane in zip(vpns, lanes)
                    }
                    if None in origins.values():
                        origins = core._vpn_origins(instr)
                lookup_cycles = -(-n_pages // ports)  # ceil division
                # The TLB's read ports arbitrate across warps: a lookup
                # batch occupies them for lookup_cycles, queueing behind
                # earlier batches still in flight.
                port_busy = core.tlb_port_busy_until
                port_start = now if now > port_busy else port_busy
                core.tlb_port_busy_until = port_start + lookup_cycles
                tlb_done = port_start + extra_latency + lookup_cycles
                stats.tlb_lookups += n_pages
                if cpm is not None:
                    cpm.maybe_flush(now)
                bases = {}
                # One probe per page, SetAssociativeTLB.lookup inline.
                for vpn in vpns:
                    history_id = origins.get(vpn, warp_id) if origins else warp_id
                    tlb_set = tlb_sets[vpn % num_sets]
                    if vpn not in tlb_set:
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
                    if keep_history:
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
                    bases[vpn] = entry.pfn << 12
                all_ready = tlb_done
                if misses is not None:
                    walk_ready, all_ready = core._handle_misses(
                        warp, misses, tlb_done, origins
                    )
                    for vpn, (pfn, _ready) in walk_ready.items():
                        bases[vpn] = pfn << 12
                    missed = walk_ready
                    if cache_overlap:
                        # Lines of TLB-hitting pages go at once; a missed
                        # page's lines wait for its own walk.
                        page_ready = walk_ready
                if cache_overlap:
                    runs = page_runs  # lines in page order
                # Every line waits for all translations unless
                # ``page_ready`` gives its page's own time.
                available = all_ready
                if profiled:
                    _prof.end()
                    _prof.begin(_prof.PHASE_CACHE)
                cursor = now
                completion = tlb_done
                if spanned and misses is not None:
                    span_fills = {vpn: [] for vpn in misses}

            # Cache stage, one page run at a time.  Queue state is
            # sampled in present time; the translation wait is then
            # added as a serial shift.
            l1_hits = l1_misses = miss_latency = merges = stalls = l2_hits = 0
            for vpn, offsets in runs:
                base = bases[vpn]
                tlb_missed = vpn in missed
                if page_ready is not None:
                    available = page_ready[vpn][1] if tlb_missed else tlb_done
                fills = span_fills.get(vpn) if span_fills is not None else None
                for offset in offsets:
                    cursor += 1
                    paddr = base + offset
                    cache_set = l1_sets[paddr // l1_line % l1_num_sets]
                    ev_line = ev_warp = None
                    if paddr in cache_set:
                        l1_hits += 1
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
                        ready = cursor + l1_latency
                        level = "l1"
                    else:
                        l1_misses += 1
                        if len(cache_set) >= l1_assoc:
                            ev_line = next(iter(cache_set))
                            ev_warp = cache_set.pop(ev_line)
                        cache_set[paddr] = warp_id
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
                            expire(cursor)
                        else:
                            while heap and heap[0][0] <= cursor:
                                del inflight[_heappop(heap)[1]]
                        # An entry still in flight fills after cursor.
                        ready = inflight.get(paddr)
                        if ready is not None:
                            merges += 1
                            if traced:
                                record(
                                    (
                                        _ev.MSHR_MERGE,
                                        cursor,
                                        core_id,
                                        "mshr",
                                        None,
                                        {"line": paddr, "ready": ready},
                                    )
                                )
                            level = "l1-mshr"
                        else:
                            if len(inflight) < mshr_capacity:
                                slot_free = cursor
                            else:
                                stalls += 1
                                slot_free = heap[0][0]  # the soonest fill
                                if not traced:
                                    # It retires, with its equals, before
                                    # the allocation; nothing reads the
                                    # file before then.
                                    while heap and heap[0][0] <= slot_free:
                                        del inflight[_heappop(heap)[1]]
                            # Shared levels: interconnect, L2 bank port,
                            # bank lookup, DRAM.
                            channel = (paddr // dram_line) % num_channels
                            arrive = cursor + icn_latency
                            busy = bank_busy[channel]
                            service_start = arrive if arrive > busy else busy
                            bank_busy[channel] = service_start + l2_interval
                            bank = banks[channel]
                            bank_set = bank_sets[channel][
                                paddr // bank_line % bank_num_sets
                            ]
                            if paddr in bank_set:
                                bank.hits += 1
                                l2_hits += 1
                                bank_set[paddr] = bank_set.pop(paddr)
                                ready = service_start + l2_latency
                                level = "l2"
                            else:
                                bank.misses += 1
                                bank_evicted = None
                                if len(bank_set) >= bank_assoc:
                                    bank_evicted = next(iter(bank_set))
                                    del bank_set[bank_evicted]
                                bank_set[paddr] = None
                                dram_channel = channels[channel]
                                dram_now = service_start + l2_latency
                                dram_busy = dram_channel.busy_until
                                dram_start = (
                                    dram_now if dram_now >= dram_busy else dram_busy
                                )
                                dram_channel.total_queue_delay += dram_start - dram_now
                                dram_channel.busy_until = (
                                    dram_start + dram_channel.service_interval
                                )
                                dram_channel.requests += 1
                                ready = (
                                    dram_start + dram_channel.access_latency
                                    + icn_latency
                                )
                                level = "dram"
                            if ready < slot_free + l1_latency:
                                ready = slot_free + l1_latency
                            if traced:
                                # The shared levels' events, the
                                # retirements up to the allocating cycle,
                                # then the allocation (which counts the
                                # new entry, inserted just below).
                                args = {
                                    "line": paddr,
                                    "hit": level == "l2",
                                    "warp": None,
                                }
                                if level == "dram":
                                    args["evicted"] = bank_evicted
                                record(
                                    (
                                        _ev.CACHE_ACCESS,
                                        _trace.NOW,
                                        core_id,
                                        bank_labels[channel],
                                        None,
                                        args,
                                    )
                                )
                                if level == "dram":
                                    record(
                                        (
                                            _ev.DRAM_ACCESS,
                                            dram_start,
                                            core_id,
                                            dram_tracks[channel],
                                            dram_channel.access_latency,
                                            {
                                                "line": paddr,
                                                "queued": dram_start - dram_now,
                                            },
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
                            inflight[paddr] = ready
                            _heappush(heap, (ready, paddr))
                        miss_latency += ready - cursor
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
            # Each L1 miss that did not merge allocated and went to L2.
            allocations = l1_misses - merges
            l1.hits += l1_hits
            mem.l1_hits += l1_hits
            l1.misses += l1_misses
            mem.l1_misses += l1_misses
            mem.total_miss_latency += miss_latency
            mshrs.merges += merges
            mshrs.stalls += stalls
            mshrs.allocations += allocations
            shm.l2_hits += l2_hits
            shm.l2_misses += allocations - l2_hits
            if profiled:
                _prof.end()
            if span_fills is not None:
                core._record_spans(
                    warp,
                    n_pages,
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
