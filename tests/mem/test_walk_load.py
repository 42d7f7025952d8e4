"""Walk loads: ``SharedMemory.walk_load`` against the single shared-level
path walk loads took before they had a method of their own."""

import contextlib

from hypothesis import given, settings, strategies as st

from repro.mem.hierarchy import MemAccessResult, SharedMemory
from repro.obs import tracer as trace
from repro.obs.sinks import RingBufferSink
from repro.prof import profiler as prof


def reference_access_line(shared, line_addr, now, is_ptw=False):
    """``SharedMemory.access_line`` as it was with its ``is_ptw`` flag:
    one path for both request classes, through
    ``SetAssociativeCache.access`` and ``DRAM.access``."""
    if prof.ENABLED:
        prof.begin(prof.PHASE_L2)
    channel = shared.dram.channel_of(line_addr)
    bank = shared.l2_banks[channel]
    arrive = now + shared.interconnect_latency
    if is_ptw:
        shared.ptw_refs += 1
        start = arrive
        shared._bank_busy_until[channel] = (
            max(arrive, shared._bank_busy_until[channel])
            + shared.l2_service_interval
        )
    else:
        start = max(arrive, shared._bank_busy_until[channel])
        shared._bank_busy_until[channel] = start + shared.l2_service_interval
    if bank.access(line_addr).hit:
        shared.l2_hits += 1
        if is_ptw:
            shared.ptw_l2_hits += 1
        if prof.ENABLED:
            prof.end()
        return MemAccessResult(start + shared.l2_latency, "l2")
    shared.l2_misses += 1
    ready = shared.dram.access(line_addr, start + shared.l2_latency)
    if prof.ENABLED:
        prof.end()
    return MemAccessResult(ready + shared.interconnect_latency, "dram")


def _system():
    # Three channels of three 2-way sets: bank evictions, channel
    # interleaving and a set count that is not a power of two.
    return SharedMemory(
        num_channels=3,
        l2_bytes_per_channel=3 * 2 * 128,
        l2_associativity=2,
        l2_service_interval=4,
        dram_service_interval=8,
    )


def _state(shared):
    """Everything a request changes: bank LRU order, counters, busy
    windows and DRAM channel state."""
    return (
        [[list(s.items()) for s in bank._sets] for bank in shared.l2_banks],
        [(bank.hits, bank.misses) for bank in shared.l2_banks],
        (shared.l2_hits, shared.l2_misses, shared.ptw_refs, shared.ptw_l2_hits),
        list(shared._bank_busy_until),
        [
            (channel.busy_until, channel.requests, channel.total_queue_delay)
            for channel in shared.dram.channels
        ],
    )


def _drive(ops, walk, data, observed):
    """Issue ``ops`` through ``walk``/``data``; return each request's
    outcome, the trace events and the profiler's phase call counts."""
    ring = RingBufferSink()
    outcomes = []
    with prof.profile() if observed else contextlib.nullcontext() as profiler:
        if observed:
            trace.install(trace.Tracer([ring]))
        try:
            clock = 0
            for is_walk, line, gap in ops:
                clock += gap
                if observed:
                    trace.NOW = clock
                if is_walk:
                    outcomes.append(walk(line, clock))
                else:
                    outcomes.append(data(line, clock))
        finally:
            if observed:
                trace.uninstall()
    events = [
        (e.kind, e.cycle, e.core, e.track, e.dur, e.args) for e in ring.events()
    ]
    calls = (
        {name: record.calls for name, record in profiler.records.items()}
        if observed
        else None
    )
    return outcomes, events, calls


_ops = st.lists(
    st.tuples(
        st.booleans(),  # a walk load, else a data access
        st.integers(min_value=0, max_value=47).map(lambda i: i * 128),
        st.integers(min_value=0, max_value=30),  # cycles since the last
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(_ops, st.booleans())
def test_walk_loads_match_the_reference_path(ops, observed):
    shared = _system()
    reference = _system()
    got = _drive(ops, shared.walk_load, shared.access_line, observed)
    want = _drive(
        ops,
        lambda line, now: reference_access_line(reference, line, now, True).ready_time,
        lambda line, now: reference_access_line(reference, line, now),
        observed,
    )
    assert got == want
    assert _state(shared) == _state(reference)
