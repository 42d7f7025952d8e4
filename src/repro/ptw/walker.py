"""The serial hardware page table walker.

One walker per shader core, placed next to the TLB (Section 6.2).  A
4 KB page walk performs four dependent loads (PML4 → PDP → PD → PT), each
injected into the shared cache hierarchy; concurrent TLB misses are
handled one walk at a time, which is precisely the serialization the
paper blames for TLB miss penalties being about twice L1 miss penalties
(Figure 4).

Fault path (``repro.faults``)
-----------------------------
With a :class:`repro.faults.context.FaultContext` attached the walker
models the events the paper's pre-mapped setup avoids:

- *demand paging* — a walk that hits a missing entry raises a page
  fault; the OS handler maps the page (charging the minor/major
  CPU-assist penalty) and the walk retries after it completes, so the
  faulting warp stalls for the full penalty;
- *transient walk errors* — injected per-load; the load is reissued
  after ``ptw_retry_backoff`` cycles, up to ``ptw_max_retries`` times
  before :class:`repro.faults.errors.PTWError`;
- *walk timeouts* — a walk exceeding ``walk_timeout_cycles`` is retried
  once from scratch, then raises
  :class:`repro.faults.errors.WalkTimeout`.

Without a context every method follows the exact pre-fault-subsystem
code path, keeping results byte-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.faults.errors import PTWError, WalkTimeout
from repro.mem.hierarchy import SharedMemory
from repro.obs import events as _ev
from repro.obs import spans as _spans
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof
from repro.vm.address import cache_line_of
from repro.vm.page_table import PageTable, TranslationFault, WalkStep
from repro.vm.pte import PTE_FLAG_LARGE, unpack_pte


class WalkResult(NamedTuple):
    """Outcome of one page walk: completion time, translation, and the
    loads issued (a reissued errored load and a timed-out walk's second
    pass included)."""

    ready_time: int
    pfn: int
    refs: int


class WalkBatchResult(NamedTuple):
    """Outcome of walking a set of pages that missed together.

    Attributes
    ----------
    ready_time:
        Cycle at which the *last* translation of the batch is available.
    translations:
        vpn → pfn for every requested page.
    ready_times:
        vpn → cycle its individual translation completed (per-walk for
        the serial walker; batch-level milestones for the scheduler).
    refs:
        Total walk loads issued for the batch, reissued errored loads
        and timed-out walks' second passes included.
    naive_refs:
        Loads a serial walker would issue for the batch: the walk
        lengths summed (a faulting batch's retry included).
    """

    ready_time: int
    translations: Dict[int, int]
    ready_times: Dict[int, int]
    refs: int
    naive_refs: int


class PageTableWalker:
    """A serial hardware walker bound to one page table and memory system.

    Parameters
    ----------
    page_table:
        The process page table to traverse.
    shared_memory:
        The L2/DRAM path walk loads travel through.
    faults:
        Optional :class:`repro.faults.context.FaultContext`; attaches
        the demand-paging model and/or the fault injector.
    """

    def __init__(
        self,
        page_table: PageTable,
        shared_memory: SharedMemory,
        faults=None,
    ):
        self.page_table = page_table
        self.shared = shared_memory
        self.busy_until = 0
        self.walks = 0
        self.refs_issued = 0
        self.refs_naive = 0  # what a 4-loads-per-walk design would issue
        self.total_walk_cycles = 0
        self._walk_seq = 0  # trace span ids
        self.faults = faults
        self._fault_model = faults.model if faults is not None else None
        self._injector = faults.injector if faults is not None else None
        cfg = faults.config if faults is not None else None
        self._retry_backoff = cfg.ptw_retry_backoff if cfg is not None else 0
        self._max_retries = cfg.ptw_max_retries if cfg is not None else 0
        self._timeout = cfg.walk_timeout_cycles if cfg is not None else 0
        # Fault counters (whole-run; aggregated into CoreStats).
        self.transient_errors = 0
        self.load_retries = 0
        self.walk_timeouts = 0

    def _load(self, paddr: int, now: int) -> int:
        """Issue one walk load; return its data-ready cycle.

        With an injector attached, each (re)issue draws a transient
        error; errored loads reissue after the backoff until one
        succeeds or the retry budget is exhausted.
        """
        ready = self.shared.walk_load(cache_line_of(paddr), now)
        self.refs_issued += 1
        injector = self._injector
        if injector is None:
            return ready
        errors = 0
        while injector.ptw_transient_error(paddr):
            self.transient_errors += 1
            errors += 1
            if _trace.ENABLED:
                _trace.emit(
                    _ev.FAULT_INJECT,
                    cycle=ready,
                    track="faults",
                    fault="ptw_error",
                    paddr=paddr,
                    attempt=errors,
                )
            if errors > self._max_retries:
                raise PTWError(
                    f"walk load of paddr {paddr:#x} failed {errors} times "
                    f"(retry budget {self._max_retries})",
                    diagnostics={
                        "paddr": paddr,
                        "errors": errors,
                        "max_retries": self._max_retries,
                        "cycle": ready,
                    },
                )
            ready = self.shared.walk_load(
                cache_line_of(paddr), ready + self._retry_backoff
            )
            self.refs_issued += 1
            self.load_retries += 1
        return ready

    def _resolve_steps(
        self, vpn: int, start: int
    ) -> Tuple[Tuple[WalkStep, ...], int]:
        """Walk the table functionally, faulting in the page if needed.

        Returns the walk's memory references and the cycle the hardware
        walk may begin (deferred past the OS handler on a fault).
        """
        if self._fault_model is None:
            return self.page_table.walk(vpn), start
        try:
            return self.page_table.walk(vpn), start
        except TranslationFault:
            ready = self._fault_model.page_fault(vpn, start)
            # The handler mapped the page; the hardware walk retries
            # once it completes.
            return self.page_table.walk(vpn), ready

    def _issue_steps(
        self,
        steps: Tuple[WalkStep, ...],
        start: int,
        tracing: bool,
        segments: Optional[list] = None,
    ) -> int:
        """Issue a walk's loads serially from ``start``; return done cycle.

        ``segments``, when given, collects ``(level, issued_at, ready)``
        per load for the span recorder's per-level decomposition.
        """
        clock = start
        for step in steps:
            issued_at = clock
            clock = self._load(step.load_paddr, clock)
            if segments is not None:
                segments.append((step.level, issued_at, clock))
            if tracing:
                _trace.emit(
                    _ev.WALK_STEP,
                    cycle=issued_at,
                    track="walker",
                    dur=clock - issued_at,
                    level=step.level,
                    paddr=step.load_paddr,
                )
        return clock

    def walk(self, vpn: int, now: int) -> WalkResult:
        """Walk one page serially starting no earlier than ``now``."""
        if _prof.ENABLED:
            # An error raised mid-walk leaves this frame open; the
            # simulator's end_through unwinds it with the run.
            _prof.begin(_prof.PHASE_PTW)
        start = now if now >= self.busy_until else self.busy_until
        queue_end = start  # walker accepted the walk (pre-fault-handler)
        issued = self.refs_issued
        steps, start = self._resolve_steps(vpn, start)
        tracing = _trace.ENABLED
        segments = [] if _spans.ENABLED else None
        if tracing:
            self._walk_seq += 1
            walk_id = self._walk_seq
            _trace.emit(
                _ev.WALK_BEGIN,
                cycle=start,
                track="walker",
                id=walk_id,
                vpn=vpn,
                queued=start - now,
            )
        clock = self._issue_steps(steps, start, tracing, segments)
        if self._fault_model is not None:
            # Another warp's fault on this page may still be in flight;
            # the translation is not architecturally visible before the
            # handler completes.
            pending = self._fault_model.pending_ready(vpn)
            if pending > clock:
                clock = pending
        if self._timeout and clock - start > self._timeout:
            self.walk_timeouts += 1
            if tracing:
                _trace.emit(
                    _ev.FAULT_INJECT,
                    cycle=clock,
                    track="faults",
                    fault="walk_timeout",
                    vpn=vpn,
                    latency=clock - start,
                )
            retry_start = clock
            clock = self._issue_steps(steps, retry_start, tracing, segments)
            if clock - retry_start > self._timeout:
                raise WalkTimeout(
                    f"walk for vpn {vpn:#x} exceeded "
                    f"{self._timeout} cycles twice "
                    f"({clock - retry_start} on retry)",
                    diagnostics={
                        "vpn": vpn,
                        "timeout_cycles": self._timeout,
                        "retry_latency": clock - retry_start,
                    },
                )
        if tracing:
            _trace.emit(
                _ev.WALK_END,
                cycle=clock,
                track="walker",
                id=walk_id,
                vpn=vpn,
                refs=len(steps),
            )
        if segments is not None:
            _spans.note_walk(
                vpn,
                _spans.WalkDetail(
                    enqueued=now,
                    queue_end=queue_end,
                    start=start,
                    segments=segments,
                    ready=clock,
                    args={"refs": len(steps)},
                ),
            )
        self.busy_until = clock
        self.walks += 1
        self.refs_naive += len(steps)
        self.total_walk_cycles += clock - now
        leaf_pfn, leaf_flags = unpack_pte(steps[-1].entry)
        if leaf_flags & PTE_FLAG_LARGE:
            within = vpn & ((1 << 9) - 1)
            pfn = leaf_pfn + within
        else:
            pfn = leaf_pfn
        if _prof.ENABLED:
            _prof.end()
        return WalkResult(clock, pfn, self.refs_issued - issued)

    def walk_many(self, vpns: Iterable[int], now: int) -> WalkBatchResult:
        """Walk several pages back to back (no scheduling, no overlap)."""
        translations: Dict[int, int] = {}
        ready_times: Dict[int, int] = {}
        refs = 0
        naive = self.refs_naive
        finish = now
        for vpn in dict.fromkeys(vpns):
            result = self.walk(vpn, now)
            translations[vpn] = result.pfn
            ready_times[vpn] = result.ready_time
            refs += result.refs
            finish = max(finish, result.ready_time)
        return WalkBatchResult(
            ready_time=finish,
            translations=translations,
            ready_times=ready_times,
            refs=refs,
            naive_refs=self.refs_naive - naive,  # the walk lengths
        )

    @property
    def average_walk_cycles(self) -> float:
        """Average cycles per completed walk including queueing delay."""
        return self.total_walk_cycles / self.walks if self.walks else 0.0

    @property
    def refs_eliminated_fraction(self) -> float:
        """Fraction of naive walk loads this walker avoided issuing."""
        if not self.refs_naive:
            return 0.0
        return 1.0 - self.refs_issued / self.refs_naive

    def steps_for(self, vpns: Iterable[int]) -> Dict[int, List[Tuple[int, int]]]:
        """Map each vpn to its ``(level, load_paddr)`` walk references."""
        plan: Dict[int, List[Tuple[int, int]]] = {}
        for vpn in vpns:
            plan[vpn] = [
                (step.level, step.load_paddr) for step in self.page_table.walk(vpn)
            ]
        return plan
