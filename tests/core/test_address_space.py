"""The pre-mapped address space one process shares across simulations."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from helpers import small_config, small_workload

from repro.api import simulate
from repro.core import presets, simulator
from repro.core.config import PTWConfig
from repro.core.simulator import Simulator
from repro.faults.config import FaultConfig
from repro.faults.context import FaultContext
from repro.mem.hierarchy import SharedMemory
from repro.ptw.multi import WalkerPool
from repro.ptw.scheduler import ScheduledPageTableWalker
from repro.ptw.walker import PageTableWalker
from repro.vm.address import compose_vpn
from repro.vm.page_table import PageTable

_TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")

GEOM = dict(num_cores=1, warps_per_core=8, warp_width=8)


def _fault_free():
    return presets.augmented_tlb(**GEOM)


def _demand_paging():
    return _fault_free().with_(
        faults=FaultConfig(enabled=True, demand_paging=True, seed=11)
    )


class TestSharing:
    def test_two_simulators_over_one_build_share_one_table(self):
        config = small_config()
        work = small_workload(seed=4_101).build(config)
        first = Simulator(config, work, "tiny")
        second = Simulator(small_config(ptw=PTWConfig(scheduled=True)), work)
        assert second.page_table is first.page_table
        assert second.frame_map is first.frame_map
        assert first.page_table.frozen
        assert len(first.frame_map) == first.page_table.pages_mapped

    def test_page_size_keys_its_own_space(self):
        work = small_workload(seed=4_102).build(small_config())
        small = Simulator(small_config(), work)
        large = Simulator(small_config(page_shift=21), work)
        assert large.page_table is not small.page_table
        assert large.page_table.pages_mapped < small.page_table.pages_mapped

    def test_shared_table_rejects_changes(self):
        config = small_config()
        sim = Simulator(config, small_workload(seed=4_103).build(config))
        table = sim.page_table
        mapped = next(iter(sim.frame_map))
        before = table.walk(mapped)
        with pytest.raises(RuntimeError, match="frozen"):
            table.map_page(compose_vpn(300, 1, 2, 3))
        with pytest.raises(RuntimeError, match="frozen"):
            table.map_large_page(compose_vpn(300, 1, 2, 0) >> 9)
        with pytest.raises(RuntimeError, match="frozen"):
            table.unmap_page(mapped)
        # Walks still work, return tuples, and nothing moved.
        assert isinstance(before, tuple)
        assert table.walk(mapped) is before
        assert table.pages_mapped == len(sim.frame_map)

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr(simulator, "_ADDRESS_SPACES", {})
        monkeypatch.setattr(simulator, "_ADDRESS_SPACE_LIMIT", 2)
        config = small_config()
        for seed in (4_111, 4_112, 4_113):
            Simulator(config, small_workload(seed=seed).build(config))
        assert len(simulator._ADDRESS_SPACES) <= 2


_FRESH_CELL = """
from repro.api import simulate
from repro.core import presets
from helpers import small_workload
config = presets.augmented_tlb(num_cores=1, warps_per_core=8, warp_width=8)
print(simulate(config=config, workload=small_workload(seed=4_121),
               miss_scale=1.0).canonical_json())
"""


class TestDemandPaging:
    def test_paging_run_gets_a_fresh_unfrozen_table(self):
        workload = small_workload(seed=4_120)
        shared = Simulator(_fault_free(), workload.build(_fault_free()))
        paging = Simulator(_demand_paging(), workload.build(_demand_paging()))
        assert paging.page_table is not shared.page_table
        assert not paging.page_table.frozen
        assert paging.page_table.pages_mapped == 0
        assert paging.frame_map == {}

    def test_paging_table_never_memoizes_a_walk_plan(self):
        """The scheduled walker memoizes batch plans on a frozen table
        only: a demand-paging table changes as pages fault in."""
        workload = small_workload(seed=4_122)
        paging = Simulator(_demand_paging(), workload.build(_demand_paging()))
        paging.run()
        assert paging.cores[0].walker.walks > 0
        assert paging.page_table.plans is None
        shared = Simulator(_fault_free(), workload.build(_fault_free()))
        shared.run()
        assert shared.page_table.plans

    def test_fault_free_cell_after_paging_matches_a_fresh_process(self):
        workload = small_workload(seed=4_121)
        paged = simulate(
            config=_demand_paging(), workload=workload, miss_scale=1.0
        )
        assert paged.stats.page_faults_major > 0
        here = simulate(config=_fault_free(), workload=workload, miss_scale=1.0)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, _TESTS]))
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_CELL],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        fresh = proc.stdout.strip().splitlines()[-1]
        assert json.loads(fresh)["cycles"] > 0
        assert here.canonical_json() == fresh


class TestConcurrentCells:
    def test_threads_return_what_serial_runs_return(self, monkeypatch):
        """Executor threads (the serve daemon's model), more than there
        are cores, simulate cells of one cold build at once and race to
        pre-map it; each must return what a serial run returns."""
        workload = small_workload(seed=4_130)
        configs = [
            presets.naive_tlb(**GEOM),
            _fault_free(),
            presets.no_tlb(**GEOM),
            presets.hit_under_miss_tlb(**GEOM),
        ]
        monkeypatch.setattr(simulator, "_ADDRESS_SPACES", {})
        barrier = threading.Barrier(len(configs))
        threaded = [None] * len(configs)

        def run(index):
            barrier.wait(timeout=30)
            threaded[index] = simulate(
                config=configs[index], workload=workload
            ).canonical_json()

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(len(configs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        simulator._ADDRESS_SPACES.clear()
        serial = [
            simulate(config=config, workload=workload).canonical_json()
            for config in configs
        ]
        assert threaded == serial


def _mapped_table():
    table = PageTable()
    vpns = [
        compose_vpn(0xB9, 0x0C, 0xAC, 0x03),
        compose_vpn(0xB9, 0x0C, 0xAC, 0x04),
        compose_vpn(0xB9, 0x0C, 0xAD, 0x05),
        compose_vpn(2, 7, 1, 9),
    ]
    for vpn in vpns:
        table.map_page(vpn)
    table.map_large_page(9)
    return table, vpns + [(9 << 9) + 5]


def _naive(table, vpns):
    return sum(len(table.walk(vpn)) for vpn in vpns)


WALKERS = pytest.mark.parametrize(
    "make",
    [
        lambda table, shared, faults: PageTableWalker(table, shared, faults),
        lambda table, shared, faults: WalkerPool(table, shared, 3, faults),
        lambda table, shared, faults: ScheduledPageTableWalker(
            table, shared, faults
        ),
    ],
    ids=["serial", "pool", "scheduled"],
)


class TestNaiveRefs:
    """A batch reports the loads a serial walker would issue for it, so
    the shader core no longer re-walks each missed page to count them."""

    @WALKERS
    def test_batch_naive_refs_are_walk_lengths(self, make):
        table, vpns = _mapped_table()
        walker = make(table, SharedMemory(num_channels=1), None)
        batch = walker.walk_many(vpns, 0)
        assert batch.naive_refs == _naive(table, vpns) == 19

    @WALKERS
    def test_faulting_batch_counts_its_retry(self, make):
        table, mapped = _mapped_table()
        unmapped = [compose_vpn(5, 6, 7, 8), compose_vpn(5, 6, 7, 9)]
        faults = FaultContext.build(
            FaultConfig(enabled=True, demand_paging=True, seed=3), table
        )
        walker = make(table, SharedMemory(num_channels=1), faults)
        vpns = mapped + unmapped
        batch = walker.walk_many(vpns, 0)
        assert faults.model.faults == len(unmapped)
        assert batch.naive_refs == _naive(table, vpns) == 27
