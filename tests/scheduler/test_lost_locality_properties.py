"""The lost-locality schedulers' cached pool and winner pick, against a
from-scratch reference (property-based).

CCWS, TA-CCWS and TCWS cache their prioritized pool until the scores
change and pick the winner in a plain loop.  Random sequences of every
hook and ``select`` at a rising clock must leave the pool equal to one
recomputed from the scores after every step, and every ``select`` must
choose what ``max(key=(score, -distance))`` over the reference pool
chooses — equal scores and duplicate warp ids included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.scheduler.base import Candidate
from repro.gpu.scheduler.ccws import CCWSScheduler
from repro.gpu.scheduler.ta_ccws import TACCWSScheduler
from repro.gpu.scheduler.tcws import TCWSScheduler

NUM_WARPS = 4

# A low cutoff and a short half-life, so throttling and decay both
# happen within a few steps; small tag spaces, so VTAs hit.
_COMMON = dict(
    vta_entries_per_warp=4,
    vta_associativity=2,
    lls_cutoff=2,
    score_halflife=64,
)

SCHEDULERS = {
    "ccws": lambda: CCWSScheduler(NUM_WARPS, min_active_warps=1, **_COMMON),
    "ta-ccws": lambda: TACCWSScheduler(
        NUM_WARPS, tlb_miss_weight=4, min_active_warps=1, **_COMMON
    ),
    "tcws": lambda: TCWSScheduler(NUM_WARPS, min_active_warps=2, **_COMMON),
}

warps = st.integers(min_value=0, max_value=NUM_WARPS - 1)
tags = st.integers(min_value=0, max_value=3)

steps = st.one_of(
    st.tuples(
        st.just("l1"), warps, tags, st.booleans(), st.booleans(),
        st.none() | tags, st.none() | warps,
    ),
    st.tuples(st.just("tlb_hit"), warps, tags, st.integers(0, 5)),
    st.tuples(st.just("tlb_miss"), warps, tags),
    st.tuples(st.just("tlb_evict"), tags, st.none() | warps),
    st.tuples(st.just("done"), warps),
    st.tuples(
        st.just("select"),
        # Drawn with replacement: TBC can field two warps with one id.
        st.lists(st.tuples(warps, st.booleans()), min_size=1, max_size=8),
        st.booleans(),
    ),
)

#: (cycles elapsed since the previous step, step) pairs.
programs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), steps),
    min_size=10,
    max_size=80,
)


def reference_pool(scores, done, sched):
    """The prioritized pool recomputed from ``scores`` and ``done``."""
    total = sum(scores)
    if total <= sched.lls_cutoff:
        return None
    live = [w for w in range(sched.num_warps) if not done[w]]
    if not live:
        return None
    pool_size = max(
        sched.min_active_warps,
        round(len(live) * sched.lls_cutoff / total),
    )
    live.sort(key=lambda w: scores[w], reverse=True)
    return set(live[:pool_size])


def reference_select(sched, candidates, now, inflight):
    """What ``select`` must return, computed without touching ``sched``:
    decay, the recomputed pool, then max() by (score, -distance)."""
    scores = list(sched.scores)
    elapsed = now - sched._last_decay
    if elapsed >= sched.score_halflife // 8:
        factor = 0.5 ** (elapsed / sched.score_halflife)
        scores = [score * factor for score in scores]
    allowed = reference_pool(scores, sched._done, sched)
    eligible = [
        c for c in candidates
        if allowed is None or not c.is_memory or c.warp_id in allowed
    ]
    if not eligible:
        if inflight:
            return None
        eligible = candidates
    chosen = max(
        eligible,
        key=lambda c: (
            scores[c.warp_id],
            -((c.warp_id - sched._rr_next) % sched.num_warps),
        ),
    )
    return chosen.warp_id


def apply(sched, step, now):
    """Run one step; returns (got, expected) for a select, else None."""
    kind = step[0]
    if kind == "l1":
        _, warp, line, hit, tlb_missed, evicted_line, evicted_warp = step
        sched.on_l1_access(warp, line, hit, tlb_missed, evicted_line, evicted_warp)
    elif kind == "tlb_hit":
        sched.on_tlb_hit(step[1], step[2], step[3])
    elif kind == "tlb_miss":
        sched.on_tlb_miss(step[1], step[2])
    elif kind == "tlb_evict":
        sched.on_tlb_evict(step[1], step[2])
    elif kind == "done":
        sched.on_warp_done(step[1])
    else:
        candidates = [Candidate(w, is_memory) for w, is_memory in step[1]]
        expected = reference_select(sched, candidates, now, step[2])
        return sched.select(candidates, now, step[2]), expected
    return None


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
@settings(max_examples=60, deadline=None)
@given(program=programs)
def test_cached_pool_and_pick_match_reference(policy, program):
    sched = SCHEDULERS[policy]()
    now = 0
    for elapsed, step in program:
        now += elapsed
        rr_next = sched._rr_next
        outcome = apply(sched, step, now)
        if outcome is not None:
            got, expected = outcome
            assert got == expected, (step, now)
            if got is not None:
                assert sched._rr_next == (got + 1) % NUM_WARPS
            else:
                assert sched._rr_next == rr_next
        assert sched._allowed_pool() == reference_pool(
            sched.scores, sched._done, sched
        ), (step, now)


def test_pool_is_reused_until_scores_change():
    """The pool is computed once per score change, not per select."""
    sched = SCHEDULERS["ccws"]()
    sched.scores[3] = 10.0  # a direct write, before the first select
    first = sched._allowed_pool()
    assert first == {3}  # one of four live warps at total 10
    assert sched._allowed_pool() is first
    sched.select([Candidate(3, True)], now=1, inflight=False)
    assert sched._allowed_pool() is first  # no decay within 8 cycles
    sched._bump(2, 1.0)
    assert sched._allowed_pool() is not first
