"""Demand paging: the page-fault model the paper's setup avoids.

The paper pre-maps every page its workloads touch ("our workloads never
page-fault", Section 6.2), so the costliest event a GPU MMU can see is
unmodeled there.  With ``FaultConfig.demand_paging`` pages start
*unmapped*: the first hardware walk to touch one faults at the missing
entry, the OS/CPU-assist handler maps it (charging a far-fault penalty of
``major_fault_cycles``, or ``minor_fault_cycles`` when the page happened
to be resident), and the walk retries once the handler completes.  The
faulting warp therefore stalls for the full penalty — its memory
instruction cannot complete before the retried walk does.

Functional mapping is immediate (the page table is updated at fault
time) while the *timing* is deferred: :meth:`FaultModel.pending_ready`
lets later walks of the same page — e.g. another warp touching the page
while the handler is still "running" — wait for the handler instead of
faulting again.  Such merged accesses count as neither minor nor major
faults, mirroring how real OS fault handlers coalesce duplicate faults
on one page.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.faults.config import FaultConfig
from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.vm.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K
from repro.vm.page_table import PageTable

#: Decorrelates the paging RNG stream from the injector's (same seed,
#: independent draws — toggling injection must not move fault sites).
_PAGING_STREAM = 0x9E3779B9


class FaultModel:
    """OS-handler model: maps faulting pages and charges the penalty.

    Parameters
    ----------
    page_table:
        The process page table faulting pages are installed into.
    config:
        Penalties, minor-fault probability, and the seed.
    page_shift:
        The machine's page size (12 for 4 KB, 21 for 2 MB); determines
        whether a fault installs a 4 KB or a 2 MB mapping.
    """

    def __init__(
        self,
        page_table: PageTable,
        config: FaultConfig,
        page_shift: int = PAGE_SHIFT_4K,
    ):
        self.page_table = page_table
        self.config = config
        self.page_shift = page_shift
        self._large = page_shift == PAGE_SHIFT_2M
        self._rng = random.Random(config.seed ^ _PAGING_STREAM)
        #: page key (4 KB vpn, or 2 MB page number) -> handler done cycle.
        self._pending: Dict[int, int] = {}
        self.minor_faults = 0
        self.major_faults = 0
        self.fault_stall_cycles = 0

    def _key(self, vpn: int) -> int:
        """Fault granularity: the leaf page the handler installs."""
        return vpn >> (PAGE_SHIFT_2M - PAGE_SHIFT_4K) if self._large else vpn

    def page_fault(self, vpn: int, now: int) -> int:
        """Handle a fault on 4 KB-granular ``vpn`` raised at cycle ``now``.

        Maps the page, charges the minor/major penalty, and returns the
        cycle the handler completes (the earliest the retried walk may
        observe the new mapping).
        """
        key = self._key(vpn)
        pending = self._pending.get(key, 0)
        if pending > now:
            # A concurrent fault on the same page is already being
            # handled; merge into it (no second penalty).
            return pending
        minor = (
            self.config.minor_fraction > 0.0
            and self._rng.random() < self.config.minor_fraction
        )
        if minor:
            self.minor_faults += 1
            penalty = self.config.minor_fault_cycles
        else:
            self.major_faults += 1
            penalty = self.config.major_fault_cycles
        ready = now + penalty
        self.fault_stall_cycles += penalty
        if self._large:
            self.page_table.ensure_mapped_large(key)
        else:
            self.page_table.ensure_mapped(vpn)
        self._pending[key] = ready
        if _trace.ENABLED:
            _trace.emit(
                _ev.PAGE_FAULT,
                cycle=now,
                track="faults",
                dur=penalty,
                vpn=vpn,
                fault="minor" if minor else "major",
            )
        return ready

    def pending_ready(self, vpn: int) -> int:
        """Cycle the in-flight handler for ``vpn``'s page completes (0 if none).

        Walks that functionally succeed must still wait for the handler
        that installed the mapping; callers take
        ``max(walk_done, pending_ready(vpn))``.
        """
        if not self._pending:
            return 0
        return self._pending.get(self._key(vpn), 0)

    @property
    def faults(self) -> int:
        """Total faults handled (minor + major)."""
        return self.minor_faults + self.major_faults
