"""A pool of page table walkers (the multiple-PTW design of Figure 11).

Distributes the concurrent walks of a batch across several serial
walkers, each walk choosing the earliest-free walker.  The paper finds
that one *augmented* walker (4-port non-blocking TLB + PTW scheduling)
outperforms even 8 naive walkers by about 10 %, at far lower area/power —
the pool exists so that comparison can be reproduced.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.mem.hierarchy import SharedMemory
from repro.obs import spans as _spans
from repro.ptw.walker import PageTableWalker, WalkBatchResult
from repro.vm.page_table import PageTable


class WalkerPool:
    """N independent serial walkers sharing one page table.

    Parameters
    ----------
    page_table / shared_memory:
        Substrate shared by every walker.
    num_walkers:
        Pool size (Figure 11 evaluates 1, 2, 4 and 8).
    """

    def __init__(
        self,
        page_table: PageTable,
        shared_memory: SharedMemory,
        num_walkers: int,
        faults=None,
    ):
        if num_walkers <= 0:
            raise ValueError("need at least one walker")
        # The walkers share one fault context: the page-fault handler
        # and the injected-error stream are machine-global resources, so
        # retry/backoff and fault merging behave identically whether a
        # walk lands on walker 0 or walker 7.
        self.walkers: List[PageTableWalker] = [
            PageTableWalker(page_table, shared_memory, faults=faults)
            for _ in range(num_walkers)
        ]

    @property
    def num_walkers(self) -> int:
        """Pool size."""
        return len(self.walkers)

    def _earliest_free(self, now: int) -> PageTableWalker:
        return min(self.walkers, key=lambda walker: max(walker.busy_until, now))

    def walk_many(self, vpns: Iterable[int], now: int) -> WalkBatchResult:
        """Walk each page on the earliest-free walker; walks overlap."""
        translations: Dict[int, int] = {}
        ready_times: Dict[int, int] = {}
        refs = 0
        naive = self.refs_naive
        finish = now
        for vpn in dict.fromkeys(vpns):
            walker = self._earliest_free(now)
            result = walker.walk(vpn, now)
            if _spans.ENABLED:
                _spans.annotate_walk(
                    vpn, pool_walker=self.walkers.index(walker)
                )
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
    def walks(self) -> int:
        """Total walks completed across the pool."""
        return sum(walker.walks for walker in self.walkers)

    @property
    def refs_issued(self) -> int:
        """Total walk loads issued across the pool."""
        return sum(walker.refs_issued for walker in self.walkers)

    @property
    def refs_naive(self) -> int:
        """Loads a naive serial design would have issued."""
        return sum(walker.refs_naive for walker in self.walkers)

    @property
    def total_walk_cycles(self) -> int:
        """Summed per-walk latency across the pool."""
        return sum(walker.total_walk_cycles for walker in self.walkers)

    @property
    def transient_errors(self) -> int:
        """Injected transient walk-load errors across the pool."""
        return sum(walker.transient_errors for walker in self.walkers)

    @property
    def load_retries(self) -> int:
        """Walk-load retries issued across the pool."""
        return sum(walker.load_retries for walker in self.walkers)

    @property
    def walk_timeouts(self) -> int:
        """Timed-out walks across the pool."""
        return sum(walker.walk_timeouts for walker in self.walkers)

    @property
    def average_walk_cycles(self) -> float:
        """Average cycles per completed walk."""
        walks = self.walks
        return self.total_walk_cycles / walks if walks else 0.0
