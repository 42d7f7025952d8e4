"""The coalescing PTW scheduler, including the paper's worked example."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.hierarchy import SharedMemory
from repro.ptw import scheduler
from repro.ptw.scheduler import (
    BatchPlan,
    ScheduledPageTableWalker,
    memoized_plan,
    plan_batch,
)
from repro.ptw.walker import PageTableWalker
from repro.vm.address import cache_line_of, compose_vpn
from repro.vm.page_table import PageTable

#: The three pages of Figure 8.
FIG8_PAGES = [
    compose_vpn(0xB9, 0x0C, 0xAC, 0x03),
    compose_vpn(0xB9, 0x0C, 0xAC, 0x04),
    compose_vpn(0xB9, 0x0C, 0xAD, 0x05),
]


def make(walker_cls):
    table = PageTable()
    shared = SharedMemory(num_channels=1)
    return table, walker_cls(table, shared)


class TestPaperWorkedExample:
    """Figure 8: three concurrent walks; naive = 12 loads, scheduled = 7."""

    def test_naive_issues_twelve_loads(self):
        table, walker = make(PageTableWalker)
        for vpn in FIG8_PAGES:
            table.map_page(vpn)
        batch = walker.walk_many(FIG8_PAGES, now=0)
        assert batch.refs == 12

    def test_scheduled_issues_seven_loads(self):
        table, walker = make(ScheduledPageTableWalker)
        for vpn in FIG8_PAGES:
            table.map_page(vpn)
        batch = walker.walk_many(FIG8_PAGES, now=0)
        assert batch.refs == 7

    def test_plan_structure_matches_figure(self):
        table, walker = make(ScheduledPageTableWalker)
        for vpn in FIG8_PAGES:
            table.map_page(vpn)
        plan = plan_batch(walker.steps_for(FIG8_PAGES))
        loads = [len(level) for level in plan.loads_per_level]
        # 1 PML4 load, 1 PDP load, 2 PD loads, 3 PT loads (two of which
        # share a cache line with each other).
        assert loads == [1, 1, 2, 3]
        assert plan.naive_refs == 12
        assert plan.scheduled_refs == 7
        assert plan.refs_eliminated == 5
        # The two same-table PT entries (0x03, 0x04) share a line and
        # are scheduled adjacently.
        pt_loads = plan.loads_per_level[3]
        lines = [addr // 128 for addr in pt_loads]
        assert lines[0] == lines[1] or lines[1] == lines[2]

    def test_scheduled_faster_than_naive(self):
        table_a, naive = make(PageTableWalker)
        table_b, sched = make(ScheduledPageTableWalker)
        for vpn in FIG8_PAGES:
            table_a.map_page(vpn)
            table_b.map_page(vpn)
        slow = naive.walk_many(FIG8_PAGES, now=0)
        fast = sched.walk_many(FIG8_PAGES, now=0)
        assert fast.ready_time < slow.ready_time

    def test_translations_agree_with_page_table(self):
        table, walker = make(ScheduledPageTableWalker)
        expected = {vpn: table.map_page(vpn) for vpn in FIG8_PAGES}
        batch = walker.walk_many(FIG8_PAGES, now=0)
        assert batch.translations == expected


class TestSchedulerProperties:
    def test_single_walk_matches_serial_refs(self):
        table, walker = make(ScheduledPageTableWalker)
        table.map_page(42)
        batch = walker.walk_many([42], now=0)
        assert batch.refs == 4

    def test_empty_batch(self):
        _, walker = make(ScheduledPageTableWalker)
        batch = walker.walk_many([], now=5)
        assert batch.ready_time == 5 and batch.refs == 0

    def test_issue_occupancy_shorter_than_data_chain(self):
        # The scheduled walker frees once its refs are injected.
        table, walker = make(ScheduledPageTableWalker)
        for vpn in FIG8_PAGES:
            table.map_page(vpn)
        batch = walker.walk_many(FIG8_PAGES, now=0)
        assert walker.busy_until <= 0 + batch.refs
        assert batch.ready_time > walker.busy_until

    def test_refs_eliminated_fraction(self):
        table, walker = make(ScheduledPageTableWalker)
        for vpn in FIG8_PAGES:
            table.map_page(vpn)
        walker.walk_many(FIG8_PAGES, now=0)
        assert walker.refs_eliminated_fraction == pytest.approx(5 / 12)

    def test_mixed_page_sizes_in_batch(self):
        table, walker = make(ScheduledPageTableWalker)
        table.map_page(compose_vpn(1, 2, 3, 4))
        base = table.map_large_page(9)
        batch = walker.walk_many([compose_vpn(1, 2, 3, 4), 9 << 9], now=0)
        assert batch.translations[9 << 9] == base


def reference_plan_batch(steps_by_vpn):
    """The level-at-a-time planner with an explicit (line, address) sort
    key, kept as the reference the one-pass planner must equal."""
    max_level = max(
        (level for steps in steps_by_vpn.values() for level, _ in steps),
        default=-1,
    )
    loads_per_level = []
    naive_refs = 0
    scheduled_refs = 0
    for steps in steps_by_vpn.values():
        naive_refs += len(steps)
    for level in range(max_level + 1):
        addrs = {
            paddr
            for steps in steps_by_vpn.values()
            for step_level, paddr in steps
            if step_level == level
        }
        ordered = tuple(sorted(addrs, key=lambda a: (cache_line_of(a), a)))
        loads_per_level.append(ordered)
        scheduled_refs += len(ordered)
    return BatchPlan(
        loads_per_level=tuple(loads_per_level),
        naive_refs=naive_refs,
        scheduled_refs=scheduled_refs,
    )


#: One walk: per-level entry addresses drawn from a few table nodes, so
#: batches share entries and cache lines; 3 levels for a 2 MB leaf.
_walks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # table node
        st.integers(min_value=0, max_value=511),  # entry index
    ),
    min_size=3,
    max_size=4,
).map(
    lambda parts: [
        (level, ((node + 1) << 12) + 8 * index)
        for level, (node, index) in enumerate(parts)
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=1 << 20), _walks,
                       max_size=12))
def test_one_pass_plan_equals_reference(steps_by_vpn):
    assert plan_batch(steps_by_vpn) == reference_plan_batch(steps_by_vpn)


def test_plan_of_real_walks_equals_reference():
    table, walker = make(ScheduledPageTableWalker)
    for vpn in FIG8_PAGES:
        table.map_page(vpn)
    table.map_large_page(9)
    steps = walker.steps_for(FIG8_PAGES + [9 << 9])
    assert plan_batch(steps) == reference_plan_batch(steps)


#: A frozen table for the plan-memo properties: 4 KB pages under two
#: PML4 entries (shared interior entries, shared leaf lines) and 2 MB
#: pages under a third, walked at any 4 KB page inside them.
_SMALL_PAGES = [
    compose_vpn(pml4, pdp, pd, pt)
    for pml4 in (0, 1)
    for pdp in (0, 3)
    for pd in (0, 1, 2)
    for pt in range(0, 40, 3)
]
_LARGE_PAGES = [compose_vpn(5, pdp, pd, 0) >> 9 for pdp in (0, 1) for pd in range(6)]


def _memo_table(frozen=True):
    table = PageTable()
    for vpn in _SMALL_PAGES:
        table.map_page(vpn)
    for vpn_2m in _LARGE_PAGES:
        table.map_large_page(vpn_2m)
    if frozen:
        table.freeze()
    return table


_batch_pages = st.one_of(
    st.sampled_from(_SMALL_PAGES),
    st.tuples(st.sampled_from(_LARGE_PAGES), st.integers(0, 511)).map(
        lambda large: (large[0] << 9) + large[1]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_batch_pages, min_size=1, max_size=12, unique=True))
def test_memoized_plan_equals_plan_batch(pages):
    pages = tuple(pages)
    table = _memo_table()
    plan = memoized_plan(table, pages)
    assert memoized_plan(table, pages) is plan  # the second call hits
    assert table.plans[pages] is plan
    steps = {vpn: [(s.level, s.load_paddr) for s in table.walk(vpn)] for vpn in pages}
    assert plan[:3] == plan_batch(steps)[:3]
    assert plan.pfns == tuple(table.translate_vpn(vpn) for vpn in pages)
    assert plan.leaf_loads == tuple(table.walk(vpn)[-1].load_paddr for vpn in pages)


def test_memoized_batch_walks_as_a_fresh_plan_does():
    """A walker over the frozen table (memoized plans) and one over an
    unfrozen table mapped alike (plans built per batch) agree batch by
    batch, repeats included."""
    memo_table = _memo_table()
    fresh_table = _memo_table(frozen=False)
    memo = ScheduledPageTableWalker(memo_table, SharedMemory(num_channels=2))
    fresh = ScheduledPageTableWalker(fresh_table, SharedMemory(num_channels=2))
    batches = [
        _SMALL_PAGES[:5],
        [(_LARGE_PAGES[1] << 9) + 7, _SMALL_PAGES[20]],
        _SMALL_PAGES[3:9],
    ]
    now = 0
    for batch in batches * 3:
        got = memo.walk_many(batch, now)
        assert got == fresh.walk_many(batch, now)
        now = got.ready_time
    assert len(memo_table.plans) == len(batches)
    assert fresh_table.plans is None


def test_plan_memo_is_capped(monkeypatch):
    table = PageTable()
    for vpn in FIG8_PAGES:
        table.map_page(vpn)
    table.freeze()
    monkeypatch.setattr(scheduler, "PLAN_MEMO_LIMIT", 2)
    for count in (1, 2, 3):
        memoized_plan(table, tuple(FIG8_PAGES[:count]))
    assert list(table.plans) == [tuple(FIG8_PAGES)]
