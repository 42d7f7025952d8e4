"""Warp scheduler interface and the baseline policies.

The scheduler picks which ready warp issues each cycle and receives
notifications from the memory unit (cache accesses/evictions, TLB
hits/misses/evictions) that the CCWS family turns into lost-locality
scores.  Baseline policies ignore the notifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Candidate:
    """A warp eligible to issue this cycle.

    ``is_memory`` flags that its next instruction is a load/store; CCWS
    restricts *memory* issue to the prioritized pool while compute may
    proceed from any warp.
    """

    warp_id: int
    is_memory: bool


class WarpScheduler:
    """Base class: selection plus memory-system notification hooks."""

    def __init__(self, num_warps: int):
        if num_warps <= 0:
            raise ValueError("need at least one warp")
        self.num_warps = num_warps

    def select(
        self, candidates: List[Candidate], now: int, inflight: bool
    ) -> Optional[int]:
        """Pick the warp to issue at cycle ``now``.

        ``candidates`` is non-empty; ``inflight`` reports whether any
        warp is currently waiting on memory (so a scheduler that declines
        to issue — returns None — knows whether time will advance on its
        own).  Returning None stalls the issue slot this cycle.
        """
        raise NotImplementedError

    def on_warp_done(self, warp_id: int) -> None:
        """A warp retired its trace."""

    def on_l1_access(
        self,
        warp_id: int,
        line_addr: int,
        hit: bool,
        tlb_missed: bool,
        evicted_line: Optional[int],
        evicted_warp: Optional[int],
    ) -> None:
        """An L1 access completed lookup; eviction info included on fills."""

    def on_tlb_hit(self, warp_id: int, vpn: int, lru_depth: int) -> None:
        """The warp hit the TLB at the given LRU stack depth."""

    def on_tlb_miss(self, warp_id: int, vpn: int) -> None:
        """The warp missed the TLB on ``vpn``."""

    def on_tlb_evict(self, vpn: int, owner_warp: Optional[int]) -> None:
        """A translation was evicted; ``owner_warp`` last touched it."""


def policy_hook(sched: WarpScheduler, name: str):
    """``sched``'s bound hook ``name``, or None while the policy keeps
    the base-class no-op (so the memory path can skip the call)."""
    if getattr(type(sched), name, None) is getattr(WarpScheduler, name):
        return None
    return getattr(sched, name)


class RoundRobinScheduler(WarpScheduler):
    """Loose round-robin: the GPU default the paper's baseline uses."""

    def __init__(self, num_warps: int):
        super().__init__(num_warps)
        self._next = 0

    def select(
        self, candidates: List[Candidate], now: int, inflight: bool
    ) -> Optional[int]:
        chosen = min(
            candidates,
            key=lambda c: (c.warp_id - self._next) % self.num_warps,
        )
        self._next = (chosen.warp_id + 1) % self.num_warps
        return chosen.warp_id


class GreedyThenOldestScheduler(WarpScheduler):
    """Keep issuing the same warp until it stalls, then pick the oldest."""

    def __init__(self, num_warps: int):
        super().__init__(num_warps)
        self._current: Optional[int] = None
        self._last_issue = [0] * num_warps

    def select(
        self, candidates: List[Candidate], now: int, inflight: bool
    ) -> Optional[int]:
        by_id = {c.warp_id for c in candidates}
        if self._current in by_id:
            chosen = self._current
        else:
            chosen = min(by_id, key=lambda w: self._last_issue[w])
            self._current = chosen
        self._last_issue[chosen] = now
        return chosen

    def on_warp_done(self, warp_id: int) -> None:
        if self._current == warp_id:
            self._current = None
