"""The supervised pool: SIGKILL survival, restart budgets, health."""

from __future__ import annotations

import json
import os
import signal

import pytest

from helpers import small_config

from repro.core.config import config_hash
from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError, SimulationError, WorkerCrashed
from repro.harness.checkpoint import SweepCheckpoint, cell_key
from repro.parallel.cells import Cell
from repro.parallel.pool import SweepExecutor
from repro.parallel.supervisor import PoolHealth


def _cells():
    return [
        Cell("naive", "bfs", small_config()),
        Cell("aug", "kmeans", small_config(warps_per_core=16)),
    ]


class _KillFirstBeating:
    """SIGKILL the first worker observed after its first heartbeat.

    Waiting for the heartbeat guarantees the parent classifies the
    death as a crash rather than an environment failure; the kill lands
    mid-cell, so the respawned worker re-runs the cell from the start.
    """

    def __init__(self):
        self.victim = None

    def __call__(self, pool) -> None:
        if self.victim is not None:
            return
        for index, worker in list(pool.active.items()):
            if worker.pid is None:
                continue
            if not os.path.exists(pool.heartbeat_path(index)):
                continue
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            self.victim = worker
            return


class _DoomCell:
    """SIGKILL one cell's worker on every spawn, as soon as it beats."""

    def __init__(self, target: int):
        self.target = target
        self.kills = 0

    def __call__(self, pool) -> None:
        worker = pool.active.get(self.target)
        if worker is None or worker.pid is None:
            return
        if not os.path.exists(pool.heartbeat_path(self.target)):
            return
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        self.kills += 1


def test_pool_survives_a_sigkilled_worker_mid_sweep():
    cells = _cells()
    serial = [r.canonical_json() for r in SweepExecutor(jobs=1).run(cells)]
    killer = _KillFirstBeating()
    recovered = SweepExecutor(jobs=2, chaos=killer, restart_budget=3).run(
        cells
    )
    assert killer.victim is not None, "chaos hook never landed a kill"
    # The killed cell's worker was respawned once and re-ran the cell.
    assert killer.victim.spawns == 2
    index = cells.index(killer.victim.cell)
    assert recovered[index].canonical_json() == serial[index]
    assert [r.canonical_json() for r in recovered] == serial


def test_restart_budget_exhaustion_fails_the_cell_not_the_sweep(tmp_path):
    cells = [
        Cell("doomed", "bfs", small_config()),
        Cell("healthy", "kmeans", small_config()),
    ]
    doom = _DoomCell(0)
    path = str(tmp_path / "sweep.jsonl")
    with SweepCheckpoint(path) as checkpoint:
        with pytest.raises(WorkerCrashed) as excinfo:
            SweepExecutor(
                jobs=2,
                chaos=doom,
                restart_budget=1,
                checkpoint=checkpoint,
            ).run(cells)
    error = excinfo.value
    assert isinstance(error, SimulationError)
    assert error.diagnostics["series"] == "doomed"
    assert error.diagnostics["spawns"] == 2  # initial + 1 restart
    assert error.diagnostics["exit_code"] == -signal.SIGKILL
    assert error.diagnostics["cell_key"] == cell_key(
        "doomed", "bfs", cells[0].config, None, 1.0
    )
    # The sweep itself survived: the healthy cell completed and was
    # recorded, and the crash was recorded as a structured failure.
    with SweepCheckpoint(path) as reloaded:
        assert reloaded.completed == 1
        assert any(
            entry["error_type"] == "WorkerCrashed"
            for entry in reloaded.failures
        )


def test_poisoned_cell_reports_its_config_hash():
    poisoned = Cell(
        "poison",
        "bfs",
        small_config(
            faults=FaultConfig(
                enabled=True, ptw_error_rate=1.0, ptw_max_retries=1, seed=3
            )
        ),
    )
    cells = [Cell("healthy", "kmeans", small_config()), poisoned]
    with pytest.raises(PTWError) as excinfo:
        SweepExecutor(jobs=2).run(cells)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics["series"] == "poison"
    assert diagnostics["cell_key"] == cell_key(
        "poison", "bfs", poisoned.config, None, 1.0
    )
    assert "cfg:" + config_hash(poisoned.config)[:24] in diagnostics["cell_key"]
    # The original worker-side traceback survives the process boundary.
    assert "PTWError" in diagnostics.get("worker_traceback", "")


def test_pool_workers_write_the_run_log(tmp_path, monkeypatch):
    # Each spawned worker configures the run log from the environment
    # it inherits, so every simulated cell logs its own run_start.
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv("REPRO_LOG_JSONL", str(path))
    cells = _cells()
    SweepExecutor(jobs=2).run(cells)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    starts = [r for r in records if r["event"] == "run_start"]
    assert sorted(r["workload"] for r in starts) == sorted(
        cell.workload for cell in cells
    )


def test_pool_health_shrinks_after_consecutive_crashes():
    health = PoolHealth(4, shrink_after=2)
    health.on_crash()
    assert health.slots == 4
    health.on_crash()
    assert health.slots == 3
    assert health.shrinks == 1
    # A success resets the streak.
    health.on_success()
    health.on_crash()
    assert health.slots == 3
    health.on_crash()
    assert health.slots == 2


def test_pool_health_never_shrinks_below_one_slot():
    health = PoolHealth(2, shrink_after=1)
    for _ in range(5):
        health.on_crash()
    assert health.slots == 1
