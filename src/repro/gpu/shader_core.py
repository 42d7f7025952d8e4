"""The SIMT shader core: issue loop, memory unit, MMU integration.

One core owns the structures of the paper's Figure 5: 48 warp slots, a
warp scheduler, a memory unit with intra-warp coalescing, a
virtually-indexed physically-tagged L1 (lookup overlapped with TLB
access), a per-core TLB with per-warp-thread MSHRs, and one (or a pool
of) hardware page table walkers.

Timing is cycle driven with event fast-forwarding: one warp instruction
issues per cycle when any warp is ready, and the clock jumps straight to
the next warp-ready event otherwise (the skipped span is the core's idle
time, the quantity the paper reports dropping from 5-15 % to 4-6 % with
PTW scheduling).

Execution modes
---------------
*Linear*: the workload hands each warp slot a complete instruction
trace (used by every non-TBC experiment).

*Block* (TBC): the workload is thread blocks of divergence regions;
warps of a block synchronize at region boundaries and the thread
compactor re-forms dynamic warps per region — with the Common Page
Matrix gating compaction in ``tlb-tbc`` mode (Section 8.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import GPUConfig
from repro.engines import DEFAULT_ENGINE, get_engine
from repro.faults.context import FaultContext
from repro.faults.watchdog import Watchdog
from repro.gpu.coalescer import coalesce
from repro.gpu.instruction import MemoryInstruction, WarpTrace
from repro.gpu.scheduler.base import Candidate, policy_hook
from repro.gpu.scheduler.factory import make_scheduler
from repro.gpu.tbc.blocks import ThreadBlock
from repro.gpu.tbc.compactor import form_region_warps
from repro.gpu.tbc.cpm import CommonPageMatrix
from repro.gpu.warp import Warp
from repro.mem.hierarchy import CoreMemory, SharedMemory
from repro.obs import events as _ev
from repro.obs import spans as _spans
from repro.obs import tracer as _trace
from repro.obs.interval import IntervalSampler
from repro.prof import profiler as _prof
from repro.ptw.multi import WalkerPool
from repro.ptw.scheduler import ScheduledPageTableWalker
from repro.ptw.walker import PageTableWalker
from repro.stats.counters import CoreStats
from repro.tlb.cacti import access_latency
from repro.tlb.tlb import SetAssociativeTLB
from repro.vm.page_table import PageTable


@dataclass
class _BlockRun:
    """Progress of one thread block through its regions (TBC modes)."""

    block: ThreadBlock
    slot_base: int
    region_index: int = 0
    live_warps: int = 0


class ShaderCore:
    """One shader core executing its share of a workload.

    Parameters
    ----------
    core_id:
        Index of this core.
    config:
        Machine description.
    page_table:
        The process page table (shared with every core and the walkers).
    shared_memory:
        The L2/DRAM subsystem shared by all cores.
    work:
        Either a list of :class:`WarpTrace` (linear mode) or a list of
        :class:`ThreadBlock` (TBC modes, per ``config.tbc.mode``).
    """

    def __init__(
        self,
        core_id: int,
        config: GPUConfig,
        page_table: PageTable,
        shared_memory: SharedMemory,
        work: Union[Sequence[WarpTrace], Sequence[ThreadBlock]],
        frame_map: Optional[Dict[int, int]] = None,
        faults: Optional[FaultContext] = None,
    ):
        self.core_id = core_id
        self.config = config
        self.page_table = page_table
        #: Fault machinery (None on fault-free machines); the injector
        #: drives TLB shootdowns/invalidations here and walk errors in
        #: the walker, the model handles demand-paging faults.
        self.faults = faults
        self._injector = faults.injector if faults is not None else None
        # Whole-run injected-fault tallies (kept off CoreStats so the
        # warmup counter reset cannot window them; copied into the stats
        # at the end of run()).
        self._shootdowns = 0
        self._injected_invalidations = 0
        #: Optional interval-metrics sampler, installed by the simulator
        #: when tracing is configured (observation only — never timing).
        self.sampler: Optional[IntervalSampler] = None
        self._stall_seq = 0
        # vpn -> pfn at the configured page size; used for zero-latency
        # physical addressing in the no-TLB baseline and for merged-walk
        # translations (avoids re-walking for a result already in
        # flight).
        self.frame_map = frame_map if frame_map is not None else {}
        self.stats = CoreStats()
        cache = config.cache
        self.memory = CoreMemory(
            shared_memory,
            l1_bytes=cache.l1_bytes,
            line_bytes=cache.line_bytes,
            l1_associativity=cache.l1_associativity,
            l1_latency=cache.l1_latency,
            mshr_entries=cache.l1_mshr_entries,
        )
        self.scheduler = make_scheduler(config.scheduler, config.warps_per_core)
        # TLB evictions reach a policy that overrides the no-op (TCWS).
        self._on_tlb_evict = policy_hook(self.scheduler, "on_tlb_evict")
        self.tbc_mode = config.tbc.mode
        block_mode = bool(work) and isinstance(work[0], ThreadBlock)
        self.cpm: Optional[CommonPageMatrix] = None
        if block_mode and self.tbc_mode == "tlb-tbc":
            self.cpm = CommonPageMatrix(
                num_warps=config.warps_per_core,
                counter_bits=config.tbc.cpm_counter_bits,
                flush_interval=config.tbc.cpm_flush_interval,
            )
        self.page_shift = config.page_shift
        self.page_mask = (1 << config.page_shift) - 1
        self.line_bytes = cache.line_bytes

        self.tlb: Optional[SetAssociativeTLB] = None
        self.walker = None
        self.tlb_extra_latency = 0
        self.tlb_blocked_until = 0
        self.tlb_port_busy_until = 0
        self._pending_walks: Dict[int, int] = {}  # vpn -> translation ready
        if config.tlb.enabled:
            # A TLB entry's warp history is read by the Common Page
            # Matrix (its prior history on a hit) and by on_tlb_evict
            # (the evicted entry's owner); without either it is not kept.
            self.tlb = SetAssociativeTLB(
                entries=config.tlb.entries,
                associativity=config.tlb.associativity,
                ports=config.tlb.ports,
                keep_history=(
                    self.cpm is not None or self._on_tlb_evict is not None
                ),
            )
            self.tlb_extra_latency = access_latency(
                config.tlb.entries, config.tlb.ports, ideal=config.tlb.ideal_latency
            )
            if config.ptw.scheduled:
                self.walker = ScheduledPageTableWalker(
                    page_table, shared_memory, faults=faults
                )
            elif config.ptw.count > 1:
                self.walker = WalkerPool(
                    page_table, shared_memory, config.ptw.count, faults=faults
                )
            else:
                self.walker = PageTableWalker(
                    page_table, shared_memory, faults=faults
                )

        self._block_runs: List[_BlockRun] = []
        self.warps: List[Warp] = []
        if block_mode:
            slot_base = 0
            for block in work:
                run = _BlockRun(block=block, slot_base=slot_base)
                slot_base += block.num_warps
                self._block_runs.append(run)
            if slot_base > config.warps_per_core:
                raise ValueError(
                    f"blocks need {slot_base} warp slots; core has "
                    f"{config.warps_per_core}"
                )
            for run in self._block_runs:
                self._launch_region(run, now=0)
        else:
            if len(work) > config.warps_per_core:
                raise ValueError(
                    f"{len(work)} warps exceed the core's "
                    f"{config.warps_per_core} slots"
                )
            # Warps start staggered (as a real dispatcher would), so
            # statistically identical traces do not produce pathological
            # lockstep memory convoys.
            self.warps = [
                Warp(trace=trace, ready_at=index * 5)
                for index, trace in enumerate(work)
            ]

        # Run state: :meth:`run` sets the warmup budget and watchdog the
        # engines read, :meth:`_begin_measurement` the measured window.
        self._warmup_budget = 0
        self._measure_from = 0
        self._warm_mem = (0, 0, 0)
        self._warm_walker = (0, 0, 0, 0)
        self._watchdog: Optional[Watchdog] = None

        #: The issue-loop strategy (see :mod:`repro.engines`).  Engines
        #: keep no simulated state: the core holds all of it.
        self.engine = get_engine(getattr(config, "engine", DEFAULT_ENGINE))(self)

    # ------------------------------------------------------------------
    # TBC region management
    # ------------------------------------------------------------------

    def _launch_region(self, run: _BlockRun, now: int) -> None:
        """Form and enqueue the warps of ``run``'s current region."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_TBC)
        traces = form_region_warps(
            run.block,
            run.region_index,
            mode=self.tbc_mode,
            cpm=self.cpm,
            slot_base=run.slot_base,
        )
        if _prof.ENABLED:
            _prof.end()
        run.live_warps = len(traces)
        self.stats.regions_executed += 1
        self.stats.warp_fetches += len(traces)
        if self.tbc_mode != "stack":
            self.stats.dynamic_warps_formed += len(traces)
        for trace in traces:
            warp = Warp(trace=trace, ready_at=now)
            warp.block_run = run  # type: ignore[attr-defined]
            self.warps.append(warp)

    def _warp_retired(self, warp: Warp, now: int) -> None:
        """Bookkeeping when a warp finishes its trace."""
        run: Optional[_BlockRun] = getattr(warp, "block_run", None)
        if run is None:
            self.scheduler.on_warp_done(warp.warp_id)
            return
        run.live_warps -= 1
        if run.live_warps == 0:
            run.region_index += 1
            if run.region_index < len(run.block.regions):
                # Block-wide synchronization: the next region's warps are
                # formed once every warp of the previous one retires.
                self._launch_region(run, now=now + 1)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _begin_measurement(self, now: int) -> None:
        """Warmup ended: restart the counters, keep the structures warm."""
        self.stats = CoreStats()
        self._measure_from = now
        if self.sampler is not None:
            self.sampler.on_counter_reset()
        self._warm_mem = (
            self.memory.l1_hits,
            self.memory.l1_misses,
            self.memory.total_miss_latency,
        )
        if self.walker is not None:
            self._warm_walker = (
                self.walker.walks,
                self.walker.refs_issued,
                self.walker.refs_naive,
                self.walker.total_walk_cycles,
            )

    def steady_memory_counters(self):
        """(l1_hits, l1_misses, total_miss_latency) in the measured window."""
        h0, m0, lat0 = self._warm_mem
        return (
            self.memory.l1_hits - h0,
            self.memory.l1_misses - m0,
            self.memory.total_miss_latency - lat0,
        )

    def steady_walker_counters(self):
        """(walks, refs_issued, refs_naive, walk_cycles) in the window."""
        if self.walker is None:
            return (0, 0, 0, 0)
        w0, ri0, rn0, wc0 = self._warm_walker
        return (
            self.walker.walks - w0,
            self.walker.refs_issued - ri0,
            self.walker.refs_naive - rn0,
            self.walker.total_walk_cycles - wc0,
        )

    def run(self, poll=None) -> CoreStats:
        """Execute the core's work to completion; return its counters.

        The issue loop itself lives in the configured engine
        (``config.engine``; see :mod:`repro.engines`) — the cycle engine
        is the faithful per-iteration reference loop, the event engine
        the byte-identical fast path.  ``poll``, when given, is called
        with no arguments at the top of every issue-loop iteration;
        normal runs pass None and pay one branch per iteration.

        Raises :class:`repro.faults.errors.SimulationHang` when the
        forward-progress watchdog (``config.faults.watchdog_cycles``)
        detects a deadlock/livelock — no instruction retired for the
        configured window.
        """
        self._watchdog = None
        if self.config.faults.watchdog_cycles > 0:
            self._watchdog = Watchdog(
                self.config.faults.watchdog_cycles, core_id=self.core_id
            )
        warmup_budget = self.config.warmup_instructions * max(len(self.warps), 1)
        if warmup_budget and self.warps and not self._block_runs:
            total = sum(len(w.trace.instructions) for w in self.warps)
            if warmup_budget >= total:
                raise ValueError(
                    f"warmup of {self.config.warmup_instructions} "
                    f"instructions per warp ({warmup_budget} total) consumes "
                    f"the whole trace ({total} instructions); nothing would "
                    f"be measured"
                )
        self._warmup_budget = warmup_budget
        end = self.engine.run(poll)
        if self.sampler is not None:
            self.sampler.finalize(end, self.stats)
        self.stats.cycles = end - self._measure_from
        self._record_fault_counters()
        return self.stats

    def _record_fault_counters(self) -> None:
        """Copy whole-run fault tallies into the (possibly reset) stats."""
        self.stats.tlb_shootdowns = self._shootdowns
        self.stats.tlb_injected_invalidations = self._injected_invalidations
        walker = self.walker
        if walker is not None:
            self.stats.ptw_transient_errors = walker.transient_errors
            self.stats.ptw_retries = walker.load_retries
            self.stats.ptw_walk_timeouts = walker.walk_timeouts

    def _hang_diagnostics(self) -> Dict[str, object]:
        """State snapshot attached to a watchdog :class:`SimulationHang`."""
        live = [w for w in self.warps if not w.done]
        return {
            "scheduler": self.config.scheduler.kind,
            "live_warps": len(live),
            "tlb_blocked_until": self.tlb_blocked_until,
            "tlb_port_busy_until": self.tlb_port_busy_until,
            "pending_walks": dict(self._pending_walks),
            "instructions_retired": self.stats.instructions,
            "warp_states": [
                {
                    "warp_id": w.warp_id,
                    "ready_at": w.ready_at,
                    "pc": w.pc,
                    "issued": w.issued,
                }
                for w in live[:16]
            ],
        }

    # ------------------------------------------------------------------
    # Memory unit
    # ------------------------------------------------------------------

    def _issue_memory(self, warp: Warp, instr: MemoryInstruction, now: int) -> int:
        """Run one warp memory instruction; return its completion cycle."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_COALESCE)
        coal = coalesce(instr.addresses, self.line_bytes, self.page_shift)
        if _prof.ENABLED:
            _prof.end()
        self.stats.page_divergence_sum += coal.page_divergence
        if coal.page_divergence > self.stats.page_divergence_max:
            self.stats.page_divergence_max = coal.page_divergence
        self.stats.coalesced_lines += len(coal.lines)
        if _trace.ENABLED:
            _trace.emit(
                _ev.MEM_COALESCE,
                cycle=now,
                track="coalescer",
                warp=warp.warp_id,
                pages=coal.page_divergence,
                lines=len(coal.lines),
            )

        if self.tlb is None:
            # No-TLB baseline: pinned, physically-addressed memory with
            # zero translation cost; lines issue one per cycle.
            completion = now
            for offset, line in enumerate(coal.lines):
                vpn = line >> self.page_shift
                pfn = self.frame_map.get(vpn)
                if pfn is not None:
                    line = (pfn << 12) + (line & self.page_mask)
                result = self.memory.access(line, now + offset, warp.warp_id)
                self.scheduler.on_l1_access(
                    warp.warp_id,
                    line,
                    result.level == "l1",
                    False,
                    result.evicted_line,
                    result.evicted_warp,
                )
                completion = max(completion, result.ready_time)
            return completion

        return self._issue_translated(warp, instr, coal, now)

    def _vpn_origins(self, instr: MemoryInstruction) -> Dict[int, int]:
        """Map each accessed page to the original warp that touches it
        (dynamic warps carry per-lane origins; otherwise empty)."""
        origins: Dict[int, int] = {}
        if instr.origins is None:
            return origins
        for addr, origin in zip(instr.addresses, instr.origins):
            if addr is None or origin is None:
                continue
            vpn = addr >> self.page_shift
            origins.setdefault(vpn, origin)
        return origins

    def _fill_tlb(self, vpn: int, pfn: int, owner: int, now: int) -> None:
        """Install a translation, then apply any injected invalidation.

        An injected single-entry invalidation models an OS unmapping the
        page on another core right after the fill (a lost-translation
        race); the next access re-walks.
        """
        eviction = self.tlb.fill(vpn, pfn, owner)
        if eviction is not None and self._on_tlb_evict is not None:
            self._on_tlb_evict(eviction.vpn, eviction.owner)
        if self._injector is not None and self._injector.tlb_invalidate(vpn):
            self.tlb.invalidate(vpn)
            self._injected_invalidations += 1
            if _trace.ENABLED:
                _trace.emit(
                    _ev.FAULT_INJECT,
                    cycle=now,
                    track="faults",
                    fault="tlb_invalidate",
                    vpn=vpn,
                )

    def _inject_shootdown(self, now: int) -> bool:
        """Draw an injected full-TLB shootdown (e.g. an munmap broadcast)
        before a lookup batch and apply it; return whether one hit.  Both
        engines call this per translated instruction when an injector
        is installed."""
        if not self._injector.tlb_shootdown(self.core_id):
            return False
        self.tlb.flush()
        self._shootdowns += 1
        if _trace.ENABLED:
            _trace.emit(
                _ev.FAULT_INJECT,
                cycle=now,
                track="faults",
                fault="tlb_shootdown",
                core=self.core_id,
            )
        return True

    def _issue_translated(self, warp: Warp, instr: MemoryInstruction, coal, now: int) -> int:
        shootdown = self._injector is not None and self._inject_shootdown(now)
        config = self.config.tlb
        n_pages = coal.page_divergence
        lookup_cycles = -(-n_pages // config.ports)  # ceil division
        # The TLB's read ports arbitrate across warps: a lookup batch
        # occupies them for lookup_cycles, queueing behind earlier
        # batches still in flight.
        port_start = max(now, self.tlb_port_busy_until)
        self.tlb_port_busy_until = port_start + lookup_cycles
        tlb_done = port_start + self.tlb_extra_latency + lookup_cycles
        origins = self._vpn_origins(instr)
        self.stats.tlb_lookups += n_pages

        translations: Dict[int, int] = {}
        page_ready: Dict[int, int] = {}
        misses: List[int] = []
        if self.cpm is not None:
            self.cpm.maybe_flush(now)
        for vpn in coal.vpns:
            history_id = origins.get(vpn, warp.warp_id)
            lookup = self.tlb.lookup(vpn, history_id)
            if lookup.hit:
                self.stats.tlb_hits += 1
                self.scheduler.on_tlb_hit(warp.warp_id, vpn, lookup.lru_depth)
                if self.cpm is not None and lookup.prior_history:
                    self.cpm.update(history_id, lookup.prior_history)
                translations[vpn] = lookup.pfn
                page_ready[vpn] = tlb_done
            else:
                self.stats.tlb_misses += 1
                self.scheduler.on_tlb_miss(warp.warp_id, vpn)
                misses.append(vpn)

        if misses:
            walk_ready, all_ready = self._handle_misses(
                warp, misses, tlb_done, origins
            )
            for vpn, (pfn, ready) in walk_ready.items():
                translations[vpn] = pfn
                page_ready[vpn] = ready
        else:
            all_ready = tlb_done

        # Cache stage.  Without cache_overlap every line waits for all
        # translations; with it, lines of TLB-hitting pages go at once.
        # Queue state is sampled in present time (the hierarchy's
        # structural queues must see near-monotone arrivals); the
        # translation wait is then added as a serial shift, preserving
        # the translate-then-access dependency.
        completion = tlb_done
        cursor: Dict[int, int] = {"t": now}
        span_fills: Optional[Dict[int, list]] = (
            {} if (_spans.ENABLED and misses) else None
        )

        def access_line(line_vaddr: int, available_at: int, tlb_missed: bool) -> None:
            nonlocal completion
            vpn = line_vaddr >> self.page_shift
            pfn = translations[vpn]
            paddr = (pfn << 12) + (line_vaddr & self.page_mask)
            start = cursor["t"] + 1
            cursor["t"] = start
            result = self.memory.access(paddr, start, warp.warp_id)
            self.scheduler.on_l1_access(
                warp.warp_id,
                paddr,
                result.level == "l1",
                tlb_missed,
                result.evicted_line,
                result.evicted_warp,
            )
            latency = result.ready_time - start
            fill_start = max(available_at, start)
            line_end = fill_start + latency
            completion = max(completion, line_end)
            if span_fills is not None and tlb_missed:
                span_fills.setdefault(vpn, []).append(
                    (result.level, fill_start, line_end)
                )

        if config.cache_overlap:
            missed_set = set(misses)
            for vpn in coal.vpns:
                for line in coal.lines_by_vpn[vpn]:
                    access_line(line, page_ready[vpn], vpn in missed_set)
        else:
            missed_set = set(misses)
            for line in coal.lines:
                vpn = line >> self.page_shift
                access_line(line, all_ready, vpn in missed_set)

        if span_fills is not None:
            self._record_spans(
                warp,
                coal.page_divergence,
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

    # ------------------------------------------------------------------
    # Causal request spans (repro.obs.spans; observation only)
    # ------------------------------------------------------------------

    def _record_spans(
        self,
        warp: Warp,
        pages: int,
        now: int,
        port_start: int,
        tlb_done: int,
        lookup_cycles: int,
        walk_ready: Dict[int, Tuple[int, int]],
        span_fills: Dict[int, list],
        completion: int,
        shootdown: bool,
    ) -> None:
        """Assemble one span tree per missed translation and record it.

        Pure observation: every timestamp was already computed by the
        timing model above; this method only arranges them into a tree
        whose root children tile ``[now, completion]`` exactly.
        """
        policy = self.config.scheduler.kind
        for vpn, (_pfn, ready) in walk_ready.items():
            root = _spans.Span(
                "translation",
                now,
                completion,
                args={
                    "vpn": vpn,
                    "warp": warp.warp_id,
                    "core": self.core_id,
                    "pages": pages,
                    "scheduler": policy,
                },
            )
            probe_args: Dict[str, object] = {
                "port_wait": port_start - now,
                "lookup_cycles": lookup_cycles,
            }
            if shootdown:
                probe_args["shootdown"] = True
            root.add(_spans.Span(_spans.TLB_PROBE, now, tlb_done, probe_args))
            detail = _spans.pop_walk(vpn << (self.page_shift - 12))
            if detail is None:
                # The miss merged into another warp's in-flight walk:
                # no walker involvement, it completes with that MSHR.
                root.add(
                    _spans.Span(
                        _spans.MSHR_MERGE,
                        tlb_done,
                        ready,
                        {"cause": "merged"},
                    )
                )
            else:
                self._add_walk_spans(root, detail, tlb_done, ready)
            fills = span_fills.get(vpn, ())
            chain_end = ready
            for _level, _fill_start, fill_end in fills:
                if fill_end > chain_end:
                    chain_end = fill_end
            if chain_end > ready:
                memory = root.add(
                    _spans.Span(
                        _spans.MEMORY, ready, chain_end, {"fills": len(fills)}
                    )
                )
                for level, fill_start, fill_end in fills:
                    memory.add(
                        _spans.Span(f"fill_{level}", fill_start, fill_end)
                    )
            if completion > chain_end:
                root.add(_spans.Span(_spans.WAKEUP, chain_end, completion))
            _spans.record(root)

    @staticmethod
    def _add_walk_spans(
        root, detail, tlb_done: int, ready: int
    ) -> None:
        """Append the walker-side components of one request tree.

        Chains [tlb_done → ready] from the walk's :class:`WalkDetail`:
        queue wait (or the OS fault handler for re-batched faulting
        walks), deferred-start fault handling, the per-level segments,
        and any stall gaps between/after them (``fault_wait``).
        """
        root.args.update(detail.args)
        edge = tlb_done
        queue_end = min(max(detail.queue_end, edge), ready)
        if queue_end > edge:
            gap_name = (
                _spans.PAGE_FAULT
                if detail.args.get("demand_fault")
                else _spans.PTW_QUEUE
            )
            queue_args: Dict[str, object] = {}
            depth = detail.args.get("queue_depth")
            if depth is not None:
                queue_args["depth"] = depth
            root.add(_spans.Span(gap_name, edge, queue_end, queue_args))
            edge = queue_end
        if detail.start > edge:
            root.add(
                _spans.Span(
                    _spans.PAGE_FAULT,
                    edge,
                    detail.start,
                    {"cause": "demand_fault"},
                )
            )
            edge = detail.start
        for level, seg_start, seg_end in detail.segments:
            if seg_start > edge:
                # A stall between loads: a still-running fault handler
                # or a timed-out walk waiting to retry.
                root.add(_spans.Span(_spans.FAULT_WAIT, edge, seg_start))
                edge = seg_start
            if seg_end > edge:
                root.add(_spans.Span(f"walk_l{level}", edge, seg_end))
                edge = seg_end
        if ready > edge:
            root.add(_spans.Span(_spans.FAULT_WAIT, edge, ready))

    def _handle_misses(
        self,
        warp: Warp,
        misses: List[int],
        walk_start: int,
        origins: Dict[int, int],
    ) -> Tuple[Dict[int, Tuple[int, int]], int]:
        """Resolve one lookup batch's TLB misses via MSHRs and the walker.

        ``walk_start`` is the cycle the lookup completes.  Both engines
        call this, so it also takes the per-miss steps: the
        TLB_MISS_BEGIN/END trace pairs, the miss and stall cycle
        counters, and a blocking TLB's hold until the last translation
        is ready.  Returns ``(walk_ready, all_ready)``: vpn → (pfn,
        translation-ready cycle), and the cycle all are ready by.
        """
        if _trace.ENABLED:
            for vpn in misses:
                _trace.emit(
                    _ev.TLB_MISS_BEGIN,
                    cycle=walk_start,
                    track="tlb",
                    vpn=vpn,
                    warp=warp.warp_id,
                )
        result: Dict[int, Tuple[int, int]] = {}
        # Expire completed walks.
        expired = [v for v, ready in self._pending_walks.items() if ready <= walk_start]
        for vpn in expired:
            del self._pending_walks[vpn]
        to_walk: List[int] = []
        for vpn in misses:
            pending = self._pending_walks.get(vpn)
            if pending is not None:
                # Another warp's walk for the same page is in flight:
                # this miss merges into its MSHR and completes with it.
                pfn = self.frame_map.get(vpn)
                if pfn is None:
                    pfn = self.page_table.translate_vpn(
                        vpn << (self.page_shift - 12)
                    )
                result[vpn] = (pfn, pending)
                # The completing walk installs the translation for the
                # merged requesters too (same treatment as a fresh walk).
                self._fill_tlb(
                    vpn, pfn, origins.get(vpn, warp.warp_id), walk_start
                )
            else:
                to_walk.append(vpn)
        if to_walk:
            free = self.config.tlb.mshr_entries - len(self._pending_walks)
            if len(to_walk) > free:
                self.stats.tlb_mshr_stalls += 1
            if _trace.ENABLED:
                _trace.emit(
                    _ev.WALK_QUEUE,
                    cycle=walk_start,
                    track="walk-queue",
                    depth=len(self._pending_walks) + len(to_walk),
                )
            batch = self.walker.walk_many(
                [vpn << (self.page_shift - 12) for vpn in to_walk], walk_start
            )
            if _spans.ENABLED:
                # Cause annotation: outstanding walks the batch queued
                # behind (the depth the trace's walk-queue counter sees).
                depth = len(self._pending_walks) + len(to_walk)
                for vpn in to_walk:
                    _spans.annotate_walk(
                        vpn << (self.page_shift - 12), queue_depth=depth
                    )
            for vpn in to_walk:
                walk_vpn = vpn << (self.page_shift - 12)
                pfn = batch.translations[walk_vpn]
                ready = batch.ready_times[walk_vpn]
                result[vpn] = (pfn, ready)
                self._pending_walks[vpn] = ready
                self._fill_tlb(
                    vpn, pfn, origins.get(vpn, warp.warp_id), walk_start
                )
            self.stats.walks += len(to_walk)
            self.stats.walk_refs_issued += batch.refs
            self.stats.walk_refs_naive += batch.naive_refs
        all_ready = walk_start
        for vpn, (_pfn, ready) in result.items():
            self.stats.total_tlb_miss_cycles += ready - walk_start
            if _trace.ENABLED:
                _trace.emit(
                    _ev.TLB_MISS_END,
                    cycle=ready,
                    track="tlb",
                    vpn=vpn,
                    latency=ready - walk_start,
                )
            if ready > all_ready:
                all_ready = ready
        self.stats.tlb_miss_stall_cycles += all_ready - walk_start
        if self.config.tlb.blocking and all_ready > self.tlb_blocked_until:
            # A blocking TLB services nothing until its misses resolve.
            self.tlb_blocked_until = all_ready
        return result, all_ready
