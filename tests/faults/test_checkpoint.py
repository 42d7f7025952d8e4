"""Resumable sweeps: checkpointed cells are skipped, failures retried."""

from __future__ import annotations

import json

import pytest

from helpers import small_config

from repro.core.results import SimulationResult
from repro.faults.errors import SimulationHang
from repro.harness.checkpoint import SweepCheckpoint, cell_key
from repro.harness.experiment import run_matrix, sweep_session
from repro.parallel import cells
from repro.parallel.pool import SweepExecutor
from repro.stats.counters import CoreStats

WORKLOAD = "bfs"


def _configs():
    return {"tiny": lambda: small_config()}


def test_resumed_sweep_is_byte_identical_and_skips_simulation(tmp_path, monkeypatch):
    path = str(tmp_path / "sweep.jsonl")
    with sweep_session(checkpoint_path=path):
        first = run_matrix(_configs(), workloads=[WORKLOAD])
    # Sabotage the simulator: a resume that re-simulated would explode.
    def _boom(*args, **kwargs):
        raise AssertionError("cell was re-simulated despite checkpoint")

    monkeypatch.setattr(cells, "simulate_cell", _boom)
    with sweep_session(checkpoint_path=path):
        second = run_matrix(_configs(), workloads=[WORKLOAD])
    a = first["tiny"][WORKLOAD]
    b = second["tiny"][WORKLOAD]
    assert a.to_json() == b.to_json()


def test_distinct_configs_do_not_collide_under_one_label():
    a = cell_key("naive", "bfs", small_config(), None, 1.0)
    b = cell_key(
        "naive", "bfs", small_config(warmup_instructions=7), None, 1.0
    )
    assert a != b


def test_failed_cells_retry_then_record_failure(tmp_path, monkeypatch):
    path = str(tmp_path / "sweep.jsonl")
    calls = {"n": 0}

    def _always_hangs(*args, **kwargs):
        calls["n"] += 1
        raise SimulationHang("stuck", diagnostics={"cycle": 123})

    monkeypatch.setattr(cells, "simulate_cell", _always_hangs)
    with SweepCheckpoint(path) as checkpoint:
        with pytest.raises(SimulationHang) as excinfo:
            SweepExecutor(checkpoint=checkpoint, retries=2).run(
                [cells.Cell("tiny", WORKLOAD, small_config())]
            )
        assert calls["n"] == 3  # 1 attempt + 2 retries
        assert excinfo.value.diagnostics["attempts"] == 3
        failures = checkpoint.failures
    assert len(failures) == 1
    assert failures[0]["error_type"] == "SimulationHang"
    assert failures[0]["attempts"] == 3
    # The failure is persisted for post-mortem...
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    assert lines[-1]["status"] == "error"
    # ...but is not treated as completed: a resume retries the cell.
    with SweepCheckpoint(path) as resumed:
        assert resumed.completed == 0
        assert len(resumed.failures) == 1


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
    with SweepCheckpoint(str(tmp_path / "sweep.jsonl")) as checkpoint:
        [result] = SweepExecutor(checkpoint=checkpoint, retries=2).run(
            [cells.Cell("tiny", WORKLOAD, small_config())]
        )
        assert result.cycles == 10
        assert checkpoint.completed == 1


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


def test_torn_final_line_is_dropped_with_a_warning(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    with sweep_session(checkpoint_path=path):
        run_matrix(_configs(), workloads=[WORKLOAD])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "half-written')  # crash mid-append
    with pytest.warns(RuntimeWarning, match="truncated"):
        checkpoint = SweepCheckpoint(path)
    try:
        # The torn line is dropped, not fatal, and costs only itself.
        assert checkpoint.completed == 1
    finally:
        checkpoint.close()


def test_cell_recorded_after_a_torn_line_survives_the_next_open(tmp_path):
    # A resumed sweep appends to the torn checkpoint; the first cell it
    # records must parse on the *next* resume even though a partial
    # line precedes it (the open terminates the torn line first).
    path = str(tmp_path / "sweep.jsonl")
    result = SimulationResult(
        workload=WORKLOAD, config_description="x", cycles=10,
        stats=CoreStats(),
    )
    with SweepCheckpoint(path) as checkpoint:
        checkpoint.record("before-the-tear", result)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "half-written')  # torn, no newline
    with pytest.warns(RuntimeWarning, match="truncated"):
        checkpoint = SweepCheckpoint(path)
    with checkpoint:
        checkpoint.record("after-the-tear", result)
    with pytest.warns(RuntimeWarning, match="truncated"):
        checkpoint = SweepCheckpoint(path)
    with checkpoint:
        assert checkpoint.completed == 2
        recovered = checkpoint.get("after-the-tear")
    assert recovered is not None
    assert recovered.to_json() == result.to_json()
