"""Intra-warp memory coalescer."""

import pytest
from hypothesis import given, strategies as st

from repro.engines import event
from repro.engines.event import coalesced_runs
from repro.gpu.coalescer import coalesce


class TestCoalescing:
    def test_same_line_coalesces(self):
        result = coalesce([0x1000, 0x1004, 0x1040])
        assert result.lines == (0x1000,)
        assert result.vpns == (1,)
        assert result.page_divergence == 1

    def test_distinct_lines_same_page(self):
        result = coalesce([0x1000, 0x1080])
        assert result.lines == (0x1000, 0x1080)
        assert result.page_divergence == 1

    def test_page_divergence(self):
        result = coalesce([0x1000, 0x2000, 0x3000])
        assert result.page_divergence == 3

    def test_inactive_lanes_skipped(self):
        result = coalesce([None, 0x1000, None])
        assert result.lines == (0x1000,)

    def test_lines_by_vpn(self):
        result = coalesce([0x1000, 0x1080, 0x2000])
        assert result.lines_by_vpn[1] == (0x1000, 0x1080)
        assert result.lines_by_vpn[2] == (0x2000,)

    def test_first_lane_order_preserved(self):
        result = coalesce([0x3000, 0x1000, 0x2000])
        assert result.vpns == (3, 1, 2)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            coalesce([0x1000], line_bytes=100)

    def test_2mb_page_shift(self):
        result = coalesce([0x1000, 0x200000 + 16], page_shift=21)
        assert result.page_divergence == 2


addresses = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 30)),
    min_size=1,
    max_size=32,
).filter(lambda xs: any(x is not None for x in xs))


@given(addresses)
def test_every_address_covered_exactly_once(addrs):
    result = coalesce(addrs)
    active = [a for a in addrs if a is not None]
    # Every active address falls in exactly one emitted line and page.
    for addr in active:
        assert (addr & ~127) in result.lines
        assert addr >> 12 in result.vpns
    # No duplicate lines or pages.
    assert len(set(result.lines)) == len(result.lines)
    assert len(set(result.vpns)) == len(result.vpns)
    # lines_by_vpn partitions the lines.
    flat = [l for lines in result.lines_by_vpn.values() for l in lines]
    assert sorted(flat) == sorted(result.lines)


@given(addresses)
def test_page_divergence_bounds(addrs):
    result = coalesce(addrs)
    active = {a for a in addrs if a is not None}
    assert 1 <= result.page_divergence <= len(active)


#: Lanes that share and interleave pages at both page sizes (2 MB pages
#: 0-2, each holding 4 KB pages 0, 1 and 511, each holding lines 0, 1
#: and 31), with masked-off lanes.
_lane = st.builds(
    lambda big, small, line, byte: (big << 21) + (small << 12) + (line << 7) + byte,
    st.integers(0, 2),
    st.sampled_from((0, 1, 511)),
    st.sampled_from((0, 1, 31)),
    st.integers(0, 127),
)
interleaved = st.lists(st.one_of(st.none(), _lane), min_size=1, max_size=32).filter(
    lambda xs: any(x is not None for x in xs)
)


@given(st.one_of(addresses, interleaved))
def test_memo_entry_matches_coalesce(addrs):
    """The event engine's compact memo entry carries exactly the
    coalescer's line and page sets, in both of its orders, and each
    page's first lane."""
    for page_shift in (12, 21):
        coal = coalesce(addrs, 128, page_shift)
        vpns, n_lines, runs, page_runs, lanes = coalesced_runs(
            tuple(addrs), 128, page_shift, {}
        )

        def lines_of(run):
            vpn, offsets = run
            return tuple((vpn << page_shift) + offset for offset in offsets)

        assert vpns == coal.vpns
        assert n_lines == len(coal.lines)
        # Serial order: maximal same-page runs that flatten to ``lines``.
        assert sum((lines_of(run) for run in runs), ()) == coal.lines
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        # Page order: one run per vpn, each that page's lines.
        assert tuple(vpn for vpn, _ in page_runs) == coal.vpns
        for run in page_runs:
            assert lines_of(run) == coal.lines_by_vpn[run[0]]
        assert (page_runs is runs) == (len(runs) == len(vpns))
        # Each page's first lane: the lowest lane touching it.
        assert lanes == tuple(
            min(
                lane
                for lane, addr in enumerate(addrs)
                if addr is not None and addr >> page_shift == vpn
            )
            for vpn in vpns
        )


class TestCoalescingMemo:
    def test_memo_and_run_table_are_bounded(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(event, "_COAL_CACHE_LIMIT", cap)
        monkeypatch.setattr(event, "_RUNS", {})
        memo = {}
        for i in range(4 * cap):
            lanes = ((i << 12) + (i % 3 << 7), None, (i + 1 << 12) + 128, i << 12)
            coalesced_runs(lanes, 128, 12, memo)
            assert len(memo) <= cap
            assert len(event._RUNS) <= cap

    def test_equal_runs_are_one_object(self):
        first = coalesced_runs((0x5000, 0x5080, 0x9000), 128, 12, {})
        second = coalesced_runs((None, 0x5000, 0x5080, 0x9000), 128, 12, {})
        assert first[2][0] is second[2][0]
        assert first[2][0][1] is second[2][0][1]
