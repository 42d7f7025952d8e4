"""The supervised pool: SIGKILL survival, restart budgets, health."""

from __future__ import annotations

import json
import os
import signal
import time
import warnings

import pytest

from helpers import small_config

from repro.core.config import GPUConfig, config_hash
from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError, SimulationError, WorkerCrashed
from repro.parallel.cache import ResultCache
from repro.parallel.cells import Cell, key_of
from repro.parallel.pool import SweepExecutor
from repro.obs import log as _log
from repro.parallel import supervisor
from repro.parallel.supervisor import SHRINK_AFTER, PoolHealth


def _cells():
    return [
        Cell("naive", "bfs", small_config()),
        Cell("aug", "kmeans", small_config(warps_per_core=16)),
    ]


class _KillFirstBeating:
    """SIGKILL the first worker observed holding a cell after its first
    heartbeat.

    Waiting for the heartbeat guarantees the parent classifies the
    death as a crash rather than an environment failure; the kill lands
    mid-cell, so the cell re-runs from the start on another worker.
    """

    def __init__(self):
        self.victim = None

    def __call__(self, pool) -> None:
        if self.victim is not None:
            return
        for worker in list(pool.workers):
            if worker.task is None or not worker.beaten:
                continue
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            self.victim = worker.task
            return


class _DoomCell:
    """SIGKILL whichever beating worker holds one cell, every time."""

    def __init__(self, target: int):
        self.target = target

    def __call__(self, pool) -> None:
        for worker in list(pool.workers):
            task = worker.task
            if task is None or task.index != self.target or not worker.beaten:
                continue
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


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
    cache = ResultCache(str(tmp_path))
    with pytest.raises(WorkerCrashed) as excinfo:
        SweepExecutor(
            jobs=2,
            chaos=doom,
            restart_budget=1,
            cache=cache,
        ).run(cells)
    error = excinfo.value
    assert isinstance(error, SimulationError)
    assert error.diagnostics["series"] == "doomed"
    assert error.diagnostics["spawns"] == 2  # initial + 1 restart
    assert error.diagnostics["exit_code"] == -signal.SIGKILL
    assert error.diagnostics["cell_key"] == key_of(cells[0])
    # The sweep itself survived: the healthy cell completed and was
    # cached, so a resume re-runs only the crashed one.
    assert cache.stores == 1 and len(cache) == 1


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
    assert diagnostics["cell_key"] == key_of(poisoned)
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
    health = PoolHealth(4)
    assert SHRINK_AFTER == 2
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
    health = PoolHealth(2)
    for _ in range(5 * SHRINK_AFTER):
        health.on_crash()
    assert health.slots == 1


def _run_logged(tmp_path, executor, cells):
    """Run ``cells`` with the parent's debug run log on; return the
    canonical results and the log records."""
    path = tmp_path / "pool.jsonl"
    _log.configure("debug", jsonl_path=str(path), text=False)
    try:
        results = executor.run(cells)
    finally:
        _log.reset()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [r.canonical_json() for r in results], records


def test_each_slot_runs_one_long_lived_worker(tmp_path):
    cells = _cells() + [
        Cell("naive", "kmeans", small_config()),
        Cell("aug", "bfs", small_config(warps_per_core=16)),
        Cell("base", "bfs", small_config(warps_per_core=4)),
    ]
    serial = [r.canonical_json() for r in SweepExecutor(jobs=1).run(cells)]
    results, records = _run_logged(tmp_path, SweepExecutor(jobs=2), cells)
    assert results == serial
    spawns = [r for r in records if r["event"] == "worker_spawn"]
    assert len(spawns) == 2


class _KillReplacementEarly:
    """SIGKILL one beating worker mid-cell, then the worker spawned to
    replace it before that worker's own first heartbeat."""

    def __init__(self):
        #: Worker pids alive when the first kill landed.
        self.before = None
        self.replacement = None

    def __call__(self, pool) -> None:
        for worker in list(pool.workers):
            pid = worker.process.pid
            if self.before is None:
                if worker.task is None or not worker.beaten:
                    continue
                self.before = {w.process.pid for w in pool.workers}
            elif self.replacement is None and pid not in self.before:
                if worker.beaten:
                    continue
                self.replacement = pid
            else:
                continue
            os.kill(pid, signal.SIGKILL)
            return


def test_replacement_dying_before_its_first_heartbeat_falls_back_to_serial():
    # A replacement starts with no heartbeat of its own, whatever its
    # predecessor sent: its death is an environment failure, and the
    # executor finishes the sweep inline.
    cells = _cells() + [
        Cell("naive", "kmeans", small_config()),
        Cell("aug", "bfs", small_config(warps_per_core=16)),
    ]
    serial = [r.canonical_json() for r in SweepExecutor(jobs=1).run(cells)]
    killer = _KillReplacementEarly()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recovered = SweepExecutor(jobs=2, chaos=killer, restart_budget=3).run(
            cells
        )
    assert killer.replacement is not None, "no replacement was killed"
    assert any(
        issubclass(w.category, RuntimeWarning)
        and "finishing remaining cells serially" in str(w.message)
        for w in caught
    )
    assert [r.canonical_json() for r in recovered] == serial


class _StallWhileOneIdles:
    """Once one worker idles while another runs a cell, lower the
    staleness bound and stall the parent past it (the busy worker's
    heartbeats queue up in its pipe meanwhile)."""

    def __init__(self, monkeypatch, stale_after: float):
        self.monkeypatch = monkeypatch
        self.stale_after = stale_after
        self.stalled = False

    def __call__(self, pool) -> None:
        workers = [w for w in pool.workers if w.beaten]
        if self.stalled or len(workers) < 2:
            return
        if any(w.task is None for w in workers) and any(
            w.task is not None for w in workers
        ):
            self.monkeypatch.setattr(
                supervisor, "DEFAULT_STALE_AFTER", self.stale_after
            )
            time.sleep(1.5 * self.stale_after)
            self.stalled = True


def test_an_idle_worker_is_never_judged_hung(tmp_path, monkeypatch):
    # The slow cell runs well past the lowered bound; the idle worker
    # stays silent past it.
    cells = [
        Cell("slow", "bfs", GPUConfig.preset("naive", num_cores=4)),
        Cell("fast", "kmeans", small_config()),
    ]
    stall = _StallWhileOneIdles(monkeypatch, stale_after=1.0)
    _, records = _run_logged(
        tmp_path, SweepExecutor(jobs=2, chaos=stall), cells
    )
    assert stall.stalled, "no worker idled while the other ran a cell"
    assert not [r for r in records if r["event"] == "worker_crash"]
    (drained,) = [r for r in records if r["event"] == "pool_drained"]
    assert drained["stale_kills"] == 0
    assert drained["restarts"] == 0
