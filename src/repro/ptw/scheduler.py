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
from repro.vm.page_table import PageTable, TranslationFault

#: Entry cap of one frozen table's plan memo (see :func:`memoized_plan`):
#: a plan of a few pages retains about 0.65 KB, and a sweep's busiest
#: table holds well under a tenth of the cap.  Eviction is a full
#: clear, as for the other memos.
PLAN_MEMO_LIMIT = 10_000


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
    pfns / leaf_loads:
        Each page's translation and the address of its leaf entry, in
        batch order (a plan of real walks, :func:`plan_walks`; empty
        from :func:`plan_batch`, which sees only load addresses).
    """

    loads_per_level: Tuple[Tuple[int, ...], ...]
    naive_refs: int
    scheduled_refs: int
    pfns: Tuple[int, ...] = ()
    leaf_loads: Tuple[int, ...] = ()

    @property
    def refs_eliminated(self) -> int:
        """Loads removed by deduplicating repeated references."""
        return self.naive_refs - self.scheduled_refs


def _level_loads(refs: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """Each level's distinct loads of ``(level, load_paddr)`` references.

    Sorting by address puts same-line loads adjacent (a cache line is
    an aligned address range) in a deterministic order within a line.
    """
    levels: List[Set[int]] = []
    for level, paddr in refs:
        while len(levels) <= level:
            levels.append(set())
        levels[level].add(paddr)
    return tuple(tuple(sorted(addrs)) for addrs in levels)


def plan_batch(steps_by_vpn: Dict[int, List[Tuple[int, int]]]) -> BatchPlan:
    """Build the level-by-level load schedule for a set of walks.

    Parameters
    ----------
    steps_by_vpn:
        vpn → list of ``(level, load_paddr)`` references, as produced by
        :meth:`repro.ptw.PageTableWalker.steps_for`.
    """
    loads_per_level = _level_loads(
        ref for steps in steps_by_vpn.values() for ref in steps
    )
    return BatchPlan(
        loads_per_level=loads_per_level,
        naive_refs=sum(map(len, steps_by_vpn.values())),
        scheduled_refs=sum(map(len, loads_per_level)),
    )


def plan_walks(page_table: PageTable, pages: Tuple[int, ...]) -> BatchPlan:
    """The plan of walking ``pages`` (all mapped) on ``page_table``:
    :func:`plan_batch`'s schedule plus each page's pfn and leaf load."""
    walks = [page_table.walk(vpn) for vpn in pages]
    loads_per_level = _level_loads(
        (step.level, step.load_paddr) for steps in walks for step in steps
    )
    return BatchPlan(
        loads_per_level=loads_per_level,
        naive_refs=sum(map(len, walks)),
        scheduled_refs=sum(map(len, loads_per_level)),
        pfns=tuple(map(page_table.translate_vpn, pages)),
        leaf_loads=tuple(steps[-1].load_paddr for steps in walks),
    )


def memoized_plan(page_table: PageTable, pages: Tuple[int, ...]) -> BatchPlan:
    """:func:`plan_walks`, memoized by page tuple on a frozen table.

    A frozen table's walks never change, so its plans are kept in
    ``page_table.plans``; an unfrozen (demand-paging) table has none
    and plans every batch afresh.
    """
    memo = page_table.plans
    if memo is None:
        return plan_walks(page_table, pages)
    plan = memo.get(pages)
    if plan is None:
        plan = plan_walks(page_table, pages)
        if len(memo) >= PLAN_MEMO_LIMIT:
            memo.clear()
        memo[pages] = plan
    return plan


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
        pages = tuple(dict.fromkeys(vpns))
        if not pages:
            return _empty_batch(now)
        start = now if now >= self.busy_until else self.busy_until
        if self._fault_model is not None:
            return self._walk_many_faulting(pages, now, start)
        return self._walk_batch(pages, now, start)

    def _walk_many_faulting(
        self, pages: Tuple[int, ...], now: int, start: int
    ) -> WalkBatchResult:
        """Batch walk under demand paging.

        Pages whose walk faults are handed to the OS handler; the
        non-faulting pages proceed through the scheduled batch
        immediately (the scheduler works out of the MSHRs, so healthy
        walks are not serialized behind the handler).  Once the
        handler(s) complete, the faulted pages retry as a second
        scheduled batch.
        """
        mapped: List[int] = []
        faulted: List[int] = []
        handler_ready = start
        for vpn in pages:
            try:
                self.page_table.walk(vpn)
            except TranslationFault:
                ready = self._fault_model.page_fault(vpn, start)
                handler_ready = max(handler_ready, ready)
                faulted.append(vpn)
            else:
                mapped.append(vpn)
        if mapped:
            batch = self._walk_batch(tuple(mapped), now, start)
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
        self, pages: Tuple[int, ...], now: int, start: int
    ) -> WalkBatchResult:
        """Schedule and issue one batch whose walks all succeed."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_PTW_SCHED)
        plan = memoized_plan(self.page_table, pages)
        tracing = _trace.ENABLED
        if tracing:
            self._walk_seq += 1
            batch_id = self._walk_seq
            _trace.emit(
                _ev.WALK_BEGIN,
                cycle=start,
                track="walker",
                id=batch_id,
                vpns=len(pages),
                queued=start - now,
                naive_refs=plan.naive_refs,
            )
        spanning = _spans.ENABLED
        level_end: Dict[int, int] = {}
        load_ready: Dict[int, int] = {}
        issued = self.refs_issued
        load = self._load
        clock = start
        for level, level_loads in enumerate(plan.loads_per_level):
            if level_loads:
                level_done = clock
                for offset, paddr in enumerate(level_loads):
                    ready = load(paddr, clock + offset)
                    load_ready[paddr] = ready
                    if ready > level_done:
                        level_done = ready
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
        translations = dict(zip(pages, plan.pfns))
        ready_times = {
            vpn: load_ready[leaf] for vpn, leaf in zip(pages, plan.leaf_loads)
        }
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
            for vpn in pages:
                steps = self.page_table.walk(vpn)
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
                            "batch": len(pages),
                            "refs": plan.scheduled_refs,
                            "eliminated": plan.refs_eliminated,
                        },
                    ),
                )
        # Issue-bandwidth occupancy: the walker frees once every
        # reference of this batch has been injected; the in-flight data
        # returns overlap with subsequent batches.
        self.busy_until = start + plan.scheduled_refs
        self.walks += len(pages)
        self.refs_naive += plan.naive_refs
        self.total_walk_cycles += sum(ready_times.values()) - now * len(pages)
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
            refs=self.refs_issued - issued,
            naive_refs=plan.naive_refs,
        )
