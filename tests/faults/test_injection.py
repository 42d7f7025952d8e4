"""Seeded fault injection: deterministic, survivable, and accounted."""

from __future__ import annotations

import dataclasses

import pytest

from helpers import small_config, small_workload

from repro.core.simulator import Simulator
from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError
from repro.faults.injection import FaultInjector
from repro.mem.hierarchy import SharedMemory
from repro.ptw.walker import PageTableWalker
from repro.vm.page_table import PageTable
from repro.vm.physical_memory import PhysicalMemory


def _run(fault_config, **config_overrides):
    config = small_config(faults=fault_config, **config_overrides)
    work = small_workload().build(config)
    return Simulator(config, work, workload_name="tiny").run()


def test_injector_draws_are_seed_deterministic():
    config = FaultConfig(enabled=True, ptw_error_rate=0.3, seed=42)
    a = FaultInjector(config)
    b = FaultInjector(config)
    draws_a = [a.ptw_transient_error(paddr) for paddr in range(200)]
    draws_b = [b.ptw_transient_error(paddr) for paddr in range(200)]
    assert draws_a == draws_b
    assert a.ptw_errors_injected == b.ptw_errors_injected > 0
    assert a.log == b.log


class _ScriptedInjector:
    """Errors the first ``n`` times, then heals (deterministic retry test)."""

    def __init__(self, n):
        self.remaining = n
        self.ptw_errors_injected = 0

    def ptw_transient_error(self, paddr):
        if self.remaining > 0:
            self.remaining -= 1
            self.ptw_errors_injected += 1
            return True
        return False


def _walker_with(injector, max_retries=3, backoff=20):
    memory = PhysicalMemory()
    page_table = PageTable(memory)
    page_table.ensure_mapped(0x40)
    walker = PageTableWalker(page_table, SharedMemory(num_channels=1))
    walker._injector = injector
    walker._max_retries = max_retries
    walker._retry_backoff = backoff
    return walker


def test_transient_errors_within_budget_retry_and_succeed():
    walker = _walker_with(_ScriptedInjector(2), max_retries=3, backoff=20)
    clean = _walker_with(_ScriptedInjector(0), max_retries=3, backoff=20)
    result = walker.walk(0x40, now=0)
    baseline = clean.walk(0x40, now=0)
    assert result.pfn == baseline.pfn
    assert walker.transient_errors == 2
    assert walker.load_retries == 2
    # Each retry re-issues the load after the backoff, so the walk takes
    # strictly longer than the clean one.
    assert result.ready_time > baseline.ready_time


def test_errors_past_retry_budget_raise_structured_ptw_error():
    walker = _walker_with(_ScriptedInjector(10), max_retries=3)
    with pytest.raises(PTWError) as excinfo:
        walker.walk(0x40, now=0)
    diag = excinfo.value.diagnostics
    assert diag["max_retries"] == 3
    assert "paddr" in diag and "cycle" in diag


def test_end_to_end_injection_is_deterministic_and_counted():
    fc = FaultConfig(
        enabled=True,
        ptw_error_rate=0.02,
        tlb_shootdown_rate=0.01,
        tlb_invalidate_rate=0.05,
        seed=3,
    )
    first = _run(fc)
    second = _run(fc)
    assert first.to_json() == second.to_json()
    stats = first.stats
    assert stats.ptw_transient_errors > 0
    assert stats.ptw_retries == stats.ptw_transient_errors
    assert stats.tlb_shootdowns > 0
    assert stats.tlb_injected_invalidations > 0


def test_different_seed_changes_fault_sites():
    base = dict(
        enabled=True, ptw_error_rate=0.02, tlb_invalidate_rate=0.05
    )
    first = _run(FaultConfig(seed=3, **base))
    second = _run(FaultConfig(seed=4, **base))
    assert first.to_json() != second.to_json()


def test_injection_only_slows_never_speeds_the_machine():
    fc = FaultConfig(enabled=True, ptw_error_rate=0.02, seed=3)
    clean = _run(FaultConfig())
    faulty = _run(fc)
    assert faulty.cycles >= clean.cycles


def test_counters_survive_serialization_round_trip():
    fc = FaultConfig(enabled=True, ptw_error_rate=0.02, seed=3)
    result = _run(fc)
    from repro.core.results import SimulationResult

    restored = SimulationResult.from_json(result.to_json())
    assert restored.to_json() == result.to_json()
    assert restored.stats.ptw_transient_errors == result.stats.ptw_transient_errors


def test_injected_shootdown_forces_rewalks():
    fc = FaultConfig(enabled=True, tlb_shootdown_rate=0.05, seed=9)
    clean = _run(FaultConfig())
    faulty = _run(fc)
    assert faulty.stats.tlb_shootdowns > 0
    assert faulty.stats.tlb_misses > clean.stats.tlb_misses


@pytest.mark.parametrize("kind", ["serial", "pool", "scheduled"])
@pytest.mark.parametrize(
    "fault_config",
    [
        FaultConfig(enabled=True, ptw_error_rate=0.2, seed=3),
        FaultConfig(enabled=True, walk_timeout_cycles=300, seed=3),
    ],
    ids=["errors", "timeouts"],
)
def test_issued_walk_refs_count_reissued_loads(kind, fault_config):
    """CoreStats counts the walk loads actually issued: a reissued
    errored load and a timed-out walk's second pass included, as the
    walker and the L2 count them."""
    from repro.core.config import PTWConfig

    ptw = {
        "serial": PTWConfig(),
        "pool": PTWConfig(count=3),
        "scheduled": PTWConfig(scheduled=True),
    }[kind]
    config = small_config(faults=fault_config, ptw=ptw, warmup_instructions=0)
    simulator = Simulator(config, small_workload().build(config), "tiny")
    stats = simulator.run().stats
    walker = simulator.cores[0].walker
    if fault_config.ptw_error_rate:
        assert walker.load_retries > 0
    elif kind != "scheduled":  # the scheduled walker has no timeout
        assert walker.walk_timeouts > 0
    assert stats.walk_refs_issued == walker.refs_issued
    assert stats.walk_refs_issued == simulator.shared_per_core[0].ptw_refs
