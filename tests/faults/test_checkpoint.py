"""Resumable sweeps: cached cells are skipped, failures retried."""

from __future__ import annotations

import pytest

from helpers import small_config

from repro.core.results import SimulationResult
from repro.faults.errors import SimulationHang
from repro.harness.experiment import run_matrix, sweep_session
from repro.parallel import cells
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import key_of
from repro.parallel.pool import SweepExecutor
from repro.stats.counters import CoreStats

WORKLOAD = "bfs"


def _configs():
    return {"tiny": lambda: small_config()}


def test_resumed_sweep_is_byte_identical_and_skips_simulation(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    with sweep_session(cache_dir=cache_dir):
        first = run_matrix(_configs(), workloads=[WORKLOAD])
    # Sabotage the simulator: a resume that re-simulated would explode.
    def _boom(*args, **kwargs):
        raise AssertionError("cell was re-simulated despite the cache")

    monkeypatch.setattr(cells, "simulate_cell", _boom)
    with sweep_session(cache_dir=cache_dir):
        second = run_matrix(_configs(), workloads=[WORKLOAD])
    a = first["tiny"][WORKLOAD]
    b = second["tiny"][WORKLOAD]
    assert a.to_json() == b.to_json()


def test_distinct_configs_do_not_collide_under_one_label():
    a = cells.Cell("naive", "bfs", small_config())
    b = cells.Cell("naive", "bfs", small_config(warmup_instructions=7))
    assert key_of(a) != key_of(b)
    assert cache_key(a) != cache_key(b)


def test_failed_cells_retry_then_record_failure(tmp_path, monkeypatch):
    calls = {"n": 0}

    def _always_hangs(*args, **kwargs):
        calls["n"] += 1
        raise SimulationHang("stuck", diagnostics={"cycle": 123})

    monkeypatch.setattr(cells, "simulate_cell", _always_hangs)
    cache = ResultCache(str(tmp_path / "cache"))
    with pytest.raises(SimulationHang) as excinfo:
        SweepExecutor(cache=cache, retries=2).run(
            [cells.Cell("tiny", WORKLOAD, small_config())]
        )
    assert calls["n"] == 3  # 1 attempt + 2 retries
    assert excinfo.value.diagnostics["attempts"] == 3
    assert excinfo.value.diagnostics["series"] == "tiny"
    # The failure is not treated as completed: a resume retries the cell.
    assert cache.stores == 0 and len(cache) == 0


def test_transient_failures_recover_within_retry_budget(tmp_path, monkeypatch):
    calls = {"n": 0}
    healthy = SimulationResult(
        workload=WORKLOAD, config_description="x", cycles=10,
        stats=CoreStats(),
    )

    def _flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] < 3:
            raise SimulationHang("stuck")
        return healthy

    monkeypatch.setattr(cells, "simulate_cell", _flaky)
    cache = ResultCache(str(tmp_path / "cache"))
    [result] = SweepExecutor(cache=cache, retries=2).run(
        [cells.Cell("tiny", WORKLOAD, small_config())]
    )
    assert result.cycles == 10
    assert cache.stores == 1 and len(cache) == 1


def test_retries_perturb_the_fault_seed():
    from repro.faults.config import FaultConfig

    config = small_config(
        faults=FaultConfig(enabled=True, ptw_error_rate=0.1, seed=5)
    )
    assert cells.reseeded(config, 0).faults.seed == 5
    assert cells.reseeded(config, 1).faults.seed == 6
    # Fault-free configs are never touched.
    clean = small_config()
    assert cells.reseeded(clean, 1) is clean


def test_torn_cache_entry_is_resimulated_on_resume(tmp_path, monkeypatch):
    # A crash (or a bad disk) can leave an entry truncated mid-byte: a
    # resume treats it as a miss, simulates the cell again, rewrites
    # the entry, and matches the clean run byte for byte.
    cache_dir = tmp_path / "cache"
    with sweep_session(cache_dir=str(cache_dir)):
        first = run_matrix(_configs(), workloads=[WORKLOAD])
    [entry] = cache_dir.glob("*/*.json")
    clean = entry.read_text(encoding="utf-8")
    entry.write_text(clean[: len(clean) // 2], encoding="utf-8")
    real = cells.simulate_cell
    calls = []

    def _counts(cell, attempt=0):
        calls.append(cell.workload)
        return real(cell, attempt)

    monkeypatch.setattr(cells, "simulate_cell", _counts)
    with sweep_session(cache_dir=str(cache_dir)):
        second = run_matrix(_configs(), workloads=[WORKLOAD])
    assert calls == [WORKLOAD]
    assert entry.read_text(encoding="utf-8") == clean
    assert (
        second["tiny"][WORKLOAD].canonical_json()
        == first["tiny"][WORKLOAD].canonical_json()
    )
