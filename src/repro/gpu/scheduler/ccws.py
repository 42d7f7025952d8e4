"""Cache-conscious wavefront scheduling (CCWS) and its scoring core.

CCWS [Rogers, O'Connor, Aamodt — MICRO 2012], as described in the
paper's Section 7.1 / Figure 12: each warp owns a small victim tag array
(VTA) of recently evicted cache lines.  A cache miss that hits in the
missing warp's own VTA means the warp's data was evicted by interleaving
— *lost intra-warp locality* — and bumps that warp's lost-locality score
(LLS).  When the summed scores exceed a cutoff, the scheduler throttles
multithreading: only the highest-scoring warps (whose working sets are
being thrashed) may issue memory instructions, letting them rebuild
reuse before the rest re-enter.

:class:`LostLocalityScheduler` implements the scoring, decay and
throttling shared by CCWS, TA-CCWS and TCWS; subclasses differ only in
*which events* update scores and which granule their VTAs hold.

``scores`` changes only through ``_bump``, ``_decay`` (when enough
cycles have passed for it to act) and ``on_warp_done``, and each of
them marks the prioritized pool stale.  ``select`` runs once per issue
slot, far more often than scores change, so it reuses the cached pool
until then; writing ``scores`` directly (as unit tests do to set up a
state) is valid only before the first ``select``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gpu.scheduler.base import Candidate, WarpScheduler
from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.tlb.victim_array import VictimTagArray


class LostLocalityScheduler(WarpScheduler):
    """Shared LLS machinery: per-warp scores, decay, throttled issue.

    Parameters
    ----------
    num_warps:
        Hardware warp slots.
    vta_entries_per_warp / vta_associativity:
        Victim tag array geometry (paper baseline: 16-entry, 8-way).
    lls_cutoff:
        Score sum beyond which multithreading is throttled.
    base_score:
        Score added on a VTA hit.
    score_halflife:
        Cycles for scores to decay by half (keeps the scheduler
        adaptive, standing in for CCWS's per-cycle score decrements).
    min_active_warps:
        Floor on the prioritized pool size.
    """

    def __init__(
        self,
        num_warps: int,
        vta_entries_per_warp: int = 16,
        vta_associativity: int = 8,
        lls_cutoff: int = 32,
        base_score: int = 1,
        score_halflife: int = 4096,
        min_active_warps: int = 2,
    ):
        super().__init__(num_warps)
        self.vta = VictimTagArray(num_warps, vta_entries_per_warp, vta_associativity)
        self.lls_cutoff = lls_cutoff
        self.base_score = base_score
        self.score_halflife = score_halflife
        self.min_active_warps = min_active_warps
        self.scores: List[float] = [0.0] * num_warps
        self._done = [False] * num_warps
        self._pool: Optional[set] = None
        self._pool_stale = True
        self._last_decay = 0
        self._rr_next = 0
        self.throttled_cycles = 0
        self.vta_hits = 0

    # -- scoring -------------------------------------------------------

    def _decay(self, now: int) -> None:
        elapsed = now - self._last_decay
        if elapsed < self.score_halflife // 8:
            return
        factor = 0.5 ** (elapsed / self.score_halflife)
        self.scores = [score * factor for score in self.scores]
        self._last_decay = now
        self._pool_stale = True

    def _bump(self, warp_id: int, amount: float) -> None:
        self.scores[warp_id] += amount
        self._pool_stale = True

    def on_warp_done(self, warp_id: int) -> None:
        self._done[warp_id] = True
        self.scores[warp_id] = 0.0
        self._pool_stale = True

    # -- throttled selection -------------------------------------------

    def _allowed_pool(self) -> Optional[set]:
        """The warps allowed to issue memory; None means unrestricted.

        Cached until the scores next change (see the module docstring).
        """
        if self._pool_stale:
            self._pool = self._compute_pool()
            self._pool_stale = False
        return self._pool

    def _compute_pool(self) -> Optional[set]:
        """The pool recomputed from the scores: the top-scoring live
        warps, fewer the further the score sum exceeds the cutoff."""
        scores = self.scores
        total = sum(scores)
        if total <= self.lls_cutoff:
            return None
        live = [w for w in range(self.num_warps) if not self._done[w]]
        if not live:
            return None
        pool_size = max(
            self.min_active_warps,
            round(len(live) * self.lls_cutoff / total),
        )
        live.sort(key=scores.__getitem__, reverse=True)
        return set(live[:pool_size])

    def select(
        self, candidates: List[Candidate], now: int, inflight: bool
    ) -> Optional[int]:
        self._decay(now)
        allowed = self._allowed_pool()
        if allowed is None:
            eligible = candidates
        else:
            eligible = [
                c for c in candidates if not c.is_memory or c.warp_id in allowed
            ]
        if not eligible:
            if inflight:
                # Deschedule: wait for a prioritized warp to return.
                self.throttled_cycles += 1
                if _trace.ENABLED:
                    _trace.emit(
                        _ev.SCHEDULER_DECISION,
                        cycle=now,
                        track="sched",
                        action="throttle",
                        pool=len(allowed) if allowed is not None else 0,
                        score_sum=round(sum(self.scores), 2),
                    )
                return None
            # Nothing in flight — issuing is the only way to make progress.
            eligible = candidates
        # Prefer high-scoring warps (most lost locality), round-robin
        # ties: max() by (score, -distance from _rr_next), keeping its
        # first-of-equals.
        scores = self.scores
        rr_next = self._rr_next
        num_warps = self.num_warps
        chosen = -1
        for candidate in eligible:
            warp_id = candidate.warp_id
            score = scores[warp_id]
            distance = (warp_id - rr_next) % num_warps
            if chosen < 0 or score > best_score or (
                score == best_score and distance < best_distance
            ):
                chosen = warp_id
                best_score = score
                best_distance = distance
        self._rr_next = (chosen + 1) % num_warps
        return chosen


class CCWSScheduler(LostLocalityScheduler):
    """Baseline CCWS: cache-line VTAs updated by L1 evictions/misses."""

    def on_l1_access(
        self,
        warp_id: int,
        line_addr: int,
        hit: bool,
        tlb_missed: bool,
        evicted_line: Optional[int],
        evicted_warp: Optional[int],
    ) -> None:
        if evicted_line is not None and evicted_warp is not None:
            self.vta.insert(evicted_warp, evicted_line)
        if not hit and self.vta.probe(warp_id, line_addr):
            self.vta_hits += 1
            self._bump(warp_id, self.base_score)
