"""MSHR file semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.mshr import MSHRFile


class TestMSHR:
    def test_lookup_miss_returns_none(self):
        assert MSHRFile(4).lookup(0, now=0) is None

    def test_merge_returns_fill_time(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0, ready_time=100, now=0)
        assert mshrs.lookup(0, now=10) == 100
        assert mshrs.merges == 1

    def test_entries_expire(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0, ready_time=100, now=0)
        assert mshrs.lookup(0, now=100) is None

    def test_outstanding(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0, 100, 0)
        mshrs.allocate(128, 50, 0)
        assert mshrs.outstanding(0) == 2
        assert mshrs.outstanding(60) == 1

    def test_earliest_free_when_not_full(self):
        mshrs = MSHRFile(2)
        assert mshrs.earliest_free(5) == 5

    def test_earliest_free_when_full(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0, 100, 0)
        mshrs.allocate(128, 60, 0)
        assert mshrs.earliest_free(10) == 60
        assert mshrs.stalls == 1

    def test_allocate_full_raises(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0, 100, 0)
        with pytest.raises(RuntimeError):
            mshrs.allocate(128, 100, 0)

    def test_duplicate_allocate_raises(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0, 100, 0)
        with pytest.raises(RuntimeError):
            mshrs.allocate(0, 120, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(("lookup", "earliest_free", "allocate", "outstanding")),
        st.integers(0, 7),  # line
        # Clock step: a later instruction's first lines may issue before
        # an earlier one's last, so the clock can step back.
        st.integers(-4, 6),
        st.integers(0, 12),  # fill latency of an allocation
    ),
    max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), _OPS)
def test_heap_mirrors_inflight(capacity, ops):
    """After any operation sequence the heap holds exactly the in-flight
    ``(ready, line)`` pairs, and an operation at cycle ``t`` leaves no
    other entry filling at or before ``t``: equal fill times retire
    together, and a lookup hit (a merge) fills after ``t``, so a merge
    needs no clamp."""
    mshrs = MSHRFile(capacity)
    now = 0
    for op, line, step, latency in ops:
        now = max(0, now + step)
        line *= 128
        allocated = merged = None
        if op == "lookup":
            merged = mshrs.lookup(line, now)
            at = now
        elif op == "earliest_free":
            at = mshrs.earliest_free(now)
            if at > now:  # full: the soonest fill retires, with its equals
                mshrs.outstanding(at)
        elif op == "outstanding":
            mshrs.outstanding(now)
            at = now
        else:
            # The engines' allocation sequence: a full file allocates at
            # its soonest fill, possibly after later lookups' cycles.
            at = mshrs.earliest_free(now)
            merged = mshrs.lookup(line, at)
            if merged is None:
                mshrs.allocate(line, at + latency, at)
                allocated = line
        assert merged is None or merged > at
        assert sorted(mshrs._heap) == sorted(
            (ready, entry) for entry, ready in mshrs._inflight.items()
        )
        assert all(
            ready > at
            for entry, ready in mshrs._inflight.items()
            if entry != allocated
        )
        assert len(mshrs._inflight) <= capacity
