"""The per-simulation bundle of fault machinery.

The simulator builds one :class:`FaultContext` and threads it through
shader cores into the walkers, so component constructors take a single
optional handle instead of a model/injector/config triple.  When nothing
in the :class:`repro.faults.config.FaultConfig` is active the build
returns ``None`` and every consumer keeps its pre-fault-subsystem code
path (the byte-identity guarantee rests on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.config import FaultConfig
from repro.faults.injection import FaultInjector
from repro.faults.model import FaultModel
from repro.vm.address import PAGE_SHIFT_4K
from repro.vm.page_table import PageTable


def demand_paging(config: FaultConfig, tlb_enabled: bool) -> bool:
    """Whether pages start unmapped and fault in at first touch.

    Demand paging requires a TLB-enabled machine: the no-TLB baseline
    models pinned, pre-mapped physical memory by definition (see
    EXPERIMENTS.md).  The simulator pre-maps exactly when this is
    False, and :meth:`FaultContext.build` attaches a fault model
    exactly when it is True.
    """
    return config.paging_active and tlb_enabled


@dataclass
class FaultContext:
    """Live fault machinery for one simulation.

    Attributes
    ----------
    config:
        The knobs everything was built from.
    model:
        Demand-paging handler, or None when paging is off.
    injector:
        Seeded injector, or None when no injection knob is active.
    """

    config: FaultConfig
    model: Optional[FaultModel] = None
    injector: Optional[FaultInjector] = None

    @classmethod
    def build(
        cls,
        config: FaultConfig,
        page_table: PageTable,
        tlb_enabled: bool = True,
        page_shift: int = PAGE_SHIFT_4K,
    ) -> Optional["FaultContext"]:
        """Construct the context, or ``None`` when nothing is active."""
        model = None
        if demand_paging(config, tlb_enabled):
            model = FaultModel(page_table, config, page_shift=page_shift)
        injector = FaultInjector(config) if config.injection_active else None
        if model is None and injector is None:
            return None
        return cls(config=config, model=model, injector=injector)
