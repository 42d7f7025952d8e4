"""The coalescing PTW scheduler (paper Figures 8 and 9).

Warps frequently TLB-miss on several pages at once, and those concurrent
walks share structure: upper-level indices change rarely (bits 47–30
cover 1 GB), so PML4/PDP loads are often *identical*, and 128-byte cache
lines hold 16 consecutive PTEs, so distinct same-table references often
share a line.  The scheduler scans the TLB MSHRs with a comparator tree,
one paging level per step, and

1. collapses repeated references into a single load, and
2. orders the remaining loads so same-cache-line references issue back
   to back (the second hits in the cache the first just filled).

The comparator scan of each level proceeds in parallel with the previous
level's loads, so scheduling adds no latency.  On the paper's worked
example (three walks needing 12 naive loads) this issues exactly 7.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from repro.obs import events as _ev
from repro.obs import spans as _spans
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof
from repro.ptw.walker import PageTableWalker, WalkBatchResult
from repro.vm.page_table import TranslationFault
from repro.vm.pte import PTE_FLAG_LARGE, unpack_pte


class BatchPlan(NamedTuple):
    """The load schedule for one batch of concurrent page walks.

    Attributes
    ----------
    loads_per_level:
        For each paging level, the ordered distinct load addresses
        (same-cache-line loads adjacent).
    naive_refs:
        Loads a serial walker would have issued (walk lengths summed).
    scheduled_refs:
        Loads this plan issues.
    """

    loads_per_level: Tuple[Tuple[int, ...], ...]
    naive_refs: int
    scheduled_refs: int

    @property
    def refs_eliminated(self) -> int:
        """Loads removed by deduplicating repeated references."""
        return self.naive_refs - self.scheduled_refs


def plan_batch(steps_by_vpn: Dict[int, List[Tuple[int, int]]]) -> BatchPlan:
    """Build the level-by-level load schedule for a set of walks.

    Parameters
    ----------
    steps_by_vpn:
        vpn → list of ``(level, load_paddr)`` references, as produced by
        :meth:`repro.ptw.PageTableWalker.steps_for`.
    """
    levels: List[Set[int]] = []
    naive_refs = 0
    for steps in steps_by_vpn.values():
        naive_refs += len(steps)
        for level, paddr in steps:
            while len(levels) <= level:
                levels.append(set())
            levels[level].add(paddr)
    # Sorting by address puts same-line loads adjacent (a cache line is
    # an aligned address range) in a deterministic order within a line.
    loads_per_level = tuple(tuple(sorted(addrs)) for addrs in levels)
    return BatchPlan(
        loads_per_level=loads_per_level,
        naive_refs=naive_refs,
        scheduled_refs=sum(map(len, loads_per_level)),
    )


def _empty_batch(now: int) -> WalkBatchResult:
    return WalkBatchResult(
        ready_time=now, translations={}, ready_times={}, refs=0, naive_refs=0
    )


class ScheduledPageTableWalker(PageTableWalker):
    """A walker augmented with the coalescing MSHR-scanning scheduler.

    Beyond deduplicating and line-grouping references, the scheduler
    changes the walker's *occupancy model*: because it works out of the
    TLB MSHRs, walks from different misses are independent and overlap —
    the walker is busy only while it is issuing references (one per
    cycle), not while waiting for their data.  A naive serial walker, by
    contrast, sits idle for the full data-dependent chain of every walk
    it performs; this memory-level parallelism is why one scheduled
    walker outperforms even a pool of eight serial walkers (Figure 11).
    """

    def walk_many(self, vpns: Iterable[int], now: int) -> WalkBatchResult:
        vpn_list = list(dict.fromkeys(vpns))
        if not vpn_list:
            return _empty_batch(now)
        start = now if now >= self.busy_until else self.busy_until
        if self._fault_model is not None:
            return self._walk_many_faulting(vpn_list, now, start)
        walk_steps = {vpn: self.page_table.walk(vpn) for vpn in vpn_list}
        return self._walk_batch(vpn_list, walk_steps, now, start)

    def _walk_many_faulting(
        self, vpn_list: List[int], now: int, start: int
    ) -> WalkBatchResult:
        """Batch walk under demand paging.

        Pages whose walk faults are handed to the OS handler; the
        non-faulting pages proceed through the scheduled batch
        immediately (the scheduler works out of the MSHRs, so healthy
        walks are not serialized behind the handler).  Once the
        handler(s) complete, the faulted pages retry as a second
        scheduled batch.
        """
        walk_steps = {}
        faulted: List[int] = []
        handler_ready = start
        for vpn in vpn_list:
            try:
                walk_steps[vpn] = self.page_table.walk(vpn)
            except TranslationFault:
                ready = self._fault_model.page_fault(vpn, start)
                handler_ready = max(handler_ready, ready)
                faulted.append(vpn)
        if walk_steps:
            batch = self._walk_batch(
                list(walk_steps), walk_steps, now, start
            )
        else:
            batch = _empty_batch(now)
        if not faulted:
            return batch
        retry_at = max(handler_ready, self.busy_until)
        retry = self.walk_many(faulted, retry_at)
        if _spans.ENABLED:
            for vpn in faulted:
                _spans.annotate_walk(vpn, demand_fault=True)
        translations = dict(batch.translations)
        translations.update(retry.translations)
        ready_times = dict(batch.ready_times)
        ready_times.update(retry.ready_times)
        return WalkBatchResult(
            ready_time=max(batch.ready_time, retry.ready_time),
            translations=translations,
            ready_times=ready_times,
            refs=batch.refs + retry.refs,
            naive_refs=batch.naive_refs + retry.naive_refs,
        )

    def _walk_batch(
        self,
        vpn_list: List[int],
        walk_steps: Dict[int, Tuple],
        now: int,
        start: int,
    ) -> WalkBatchResult:
        """Schedule and issue one batch whose walks all succeed."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_PTW_SCHED)
        plan = plan_batch(
            {
                vpn: [(step.level, step.load_paddr) for step in steps]
                for vpn, steps in walk_steps.items()
            }
        )
        tracing = _trace.ENABLED
        if tracing:
            self._walk_seq += 1
            batch_id = self._walk_seq
            _trace.emit(
                _ev.WALK_BEGIN,
                cycle=start,
                track="walker",
                id=batch_id,
                vpns=len(vpn_list),
                queued=start - now,
                naive_refs=plan.naive_refs,
            )
        spanning = _spans.ENABLED
        level_end: Dict[int, int] = {}
        load_ready: Dict[int, int] = {}
        clock = start
        for level, level_loads in enumerate(plan.loads_per_level):
            if level_loads:
                level_done = clock
                for offset, paddr in enumerate(level_loads):
                    ready = self._load(paddr, clock + offset)
                    load_ready[paddr] = ready
                    level_done = max(level_done, ready)
                    if tracing:
                        _trace.emit(
                            _ev.WALK_STEP,
                            cycle=clock + offset,
                            track="walker",
                            dur=ready - (clock + offset),
                            level=level,
                            paddr=paddr,
                        )
                clock = level_done
            if spanning:
                level_end[level] = clock
        translations: Dict[int, int] = {}
        ready_times: Dict[int, int] = {}
        for vpn, steps in walk_steps.items():
            leaf = steps[-1]
            leaf_pfn, leaf_flags = unpack_pte(leaf.entry)
            if leaf_flags & PTE_FLAG_LARGE:
                within = vpn & ((1 << 9) - 1)
                translations[vpn] = leaf_pfn + within
            else:
                translations[vpn] = leaf_pfn
            ready_times[vpn] = load_ready[leaf.load_paddr]
        if self._fault_model is not None:
            # Translations installed by a still-running OS handler are
            # not visible before the handler completes.
            for vpn in ready_times:
                pending = self._fault_model.pending_ready(vpn)
                if pending > ready_times[vpn]:
                    ready_times[vpn] = pending
                    clock = max(clock, pending)
        if spanning:
            # Per-vpn level decomposition under the batch's barrier
            # model: a walk's level-k reference is satisfied when the
            # batch's level-k loads all return; its leaf completes with
            # its own load's data.
            for vpn, steps in walk_steps.items():
                prev = start
                segments = []
                for step in steps[:-1]:
                    end = level_end.get(step.level, prev)
                    segments.append((step.level, prev, end))
                    prev = end
                leaf = steps[-1]
                segments.append(
                    (leaf.level, prev, load_ready[leaf.load_paddr])
                )
                _spans.note_walk(
                    vpn,
                    _spans.WalkDetail(
                        enqueued=now,
                        queue_end=start,
                        start=start,
                        segments=segments,
                        ready=ready_times[vpn],
                        args={
                            "batch": len(vpn_list),
                            "refs": plan.scheduled_refs,
                            "eliminated": plan.refs_eliminated,
                        },
                    ),
                )
        # Issue-bandwidth occupancy: the walker frees once every
        # reference of this batch has been injected; the in-flight data
        # returns overlap with subsequent batches.
        self.busy_until = start + plan.scheduled_refs
        self.walks += len(vpn_list)
        self.refs_naive += plan.naive_refs
        self.total_walk_cycles += sum(
            ready - now for ready in ready_times.values()
        )
        if tracing:
            _trace.emit(
                _ev.WALK_END,
                cycle=clock,
                track="walker",
                id=batch_id,
                refs=plan.scheduled_refs,
                eliminated=plan.refs_eliminated,
            )
        if _prof.ENABLED:
            _prof.end()
        return WalkBatchResult(
            ready_time=clock,
            translations=translations,
            ready_times=ready_times,
            refs=plan.scheduled_refs,
            naive_refs=plan.naive_refs,
        )
