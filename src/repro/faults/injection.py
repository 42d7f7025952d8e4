"""Deterministic, seeded fault injection.

One :class:`FaultInjector` per simulation draws every injected fault
from a single ``random.Random(seed)`` stream.  The simulator executes
cores sequentially, so draw order is deterministic and two runs with the
same seed (and configuration) inject faults at *identical* sites —
``tests/faults/test_injection.py`` asserts byte-identical results.

The injector only decides *whether* a fault fires; the component that
asked (walker, shader core) models the consequences.  Every fired fault
is appended to :attr:`FaultInjector.log` so tests and post-mortems can
compare fault sites across runs.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from repro.faults.config import FaultConfig

#: Cap on the retained fault-site log (a sweep with a high error rate
#: would otherwise grow it unboundedly; the counters keep exact totals).
_LOG_LIMIT = 1 << 16


class FaultInjector:
    """Seeded source of injected faults.

    Parameters
    ----------
    config:
        The fault knobs (rates, backoffs, seed).
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        #: Fired faults as ``(kind, site)`` tuples, in injection order.
        self.log: List[Tuple[str, Any]] = []
        self.ptw_errors_injected = 0
        self.shootdowns_injected = 0
        self.invalidations_injected = 0

    def _record(self, kind: str, site: Any) -> None:
        if len(self.log) < _LOG_LIMIT:
            self.log.append((kind, site))

    def ptw_transient_error(self, paddr: int) -> bool:
        """Whether the walk load of ``paddr`` suffers a transient error."""
        rate = self.config.ptw_error_rate
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self.ptw_errors_injected += 1
        self._record("ptw_error", paddr)
        return True

    def tlb_shootdown(self, core_id: int) -> bool:
        """Whether a full-TLB shootdown hits this memory instruction."""
        rate = self.config.tlb_shootdown_rate
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self.shootdowns_injected += 1
        self._record("tlb_shootdown", core_id)
        return True

    def tlb_invalidate(self, vpn: int) -> bool:
        """Whether an invalidation races the fill of ``vpn``."""
        rate = self.config.tlb_invalidate_rate
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self.invalidations_injected += 1
        self._record("tlb_invalidate", vpn)
        return True
