"""SweepExecutor: ordering, resume, failures."""

from __future__ import annotations

import time

import pytest

from helpers import small_config

from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError, SimulationError, SimulationHang
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.experiment import run_matrix, sweep_session
from repro.parallel import cells, pool
from repro.parallel.cells import Cell
from repro.parallel.pool import SweepExecutor

WORKLOADS = ["bfs", "kmeans"]


def _cell(label="tiny", workload="bfs", **config_overrides) -> Cell:
    return Cell(
        label=label,
        workload=workload,
        config=small_config(**config_overrides),
        miss_scale=1.0,
    )


def _faulty_config():
    """A machine whose every page walk dies: fails on any seed."""
    return small_config(
        faults=FaultConfig(
            enabled=True, ptw_error_rate=1.0, ptw_max_retries=1, seed=3
        )
    )


def test_parallel_results_align_with_cell_order():
    matrix = [
        _cell("a", "bfs"),
        _cell("b", "kmeans"),
        _cell("c", "bfs", warmup_instructions=5),
    ]
    serial = SweepExecutor(jobs=1).run(matrix)
    parallel = SweepExecutor(jobs=2).run(matrix)
    assert len(parallel) == len(matrix)
    for want, got in zip(serial, parallel):
        assert want.canonical_json() == got.canonical_json()


def test_parallel_progress_counts_and_times_only_running_cells(monkeypatch):
    """A cell queued behind the pool's slots is neither in flight nor
    on the clock: the pool runs at most ``jobs`` cells at a time."""
    in_flight, timed = [], []

    class _Recording(pool.SweepProgress):
        def launched(self, count=1):
            super().launched(count)
            in_flight.append(self.in_flight)

        def cell_done(self, source, cell_seconds=0.0, label=""):
            timed.append(cell_seconds)
            super().cell_done(source, cell_seconds, label)

    monkeypatch.setattr(pool, "SweepProgress", _Recording)
    matrix = [_cell(f"c{index}") for index in range(4)]
    started = time.monotonic()
    SweepExecutor(jobs=2).run(matrix)
    wall = time.monotonic() - started
    assert len(timed) == len(matrix)
    assert max(in_flight) <= 2
    assert sum(timed) <= 2 * wall


def test_parallel_sweep_populates_checkpoint_and_cache(tmp_path):
    checkpoint_path = str(tmp_path / "sweep.jsonl")
    matrix = [_cell("a", "bfs"), _cell("a", "kmeans")]
    with SweepCheckpoint(checkpoint_path) as checkpoint:
        SweepExecutor(jobs=2, checkpoint=checkpoint).run(matrix)
        assert checkpoint.completed == 2
    # A fresh executor resolves everything from the checkpoint alone.
    with SweepCheckpoint(checkpoint_path) as resumed:
        executor = SweepExecutor(jobs=2, checkpoint=resumed)
        results = executor.run(matrix)
    assert all(r is not None for r in results)


def test_killed_sweep_resumes_without_resimulating(tmp_path, monkeypatch):
    """A sweep dying mid-matrix resumes from the checkpoint."""
    path = str(tmp_path / "sweep.jsonl")
    configs = {"tiny": lambda: small_config()}
    real = cells.simulate_cell
    seen = []

    def _dies_on_second(cell, attempt=0):
        seen.append(cell.workload)
        if len(seen) == 2:
            raise SimulationHang("killed mid-sweep")
        return real(cell, attempt)

    monkeypatch.setattr(cells, "simulate_cell", _dies_on_second)
    with pytest.raises(SimulationHang):
        with sweep_session(checkpoint_path=path):
            run_matrix(configs, workloads=WORKLOADS)
    assert seen == WORKLOADS  # first cell completed, second died

    # Resume: the completed cell must come from the checkpoint.
    resumed_calls = []

    def _counts(cell, attempt=0):
        resumed_calls.append(cell.workload)
        return real(cell, attempt)

    monkeypatch.setattr(cells, "simulate_cell", _counts)
    with sweep_session(checkpoint_path=path):
        results = run_matrix(configs, workloads=WORKLOADS)
    assert resumed_calls == [WORKLOADS[1]]
    assert set(results["tiny"]) == set(WORKLOADS)


def test_parallel_failure_reports_earliest_cell(tmp_path):
    """Workers finish, failures are recorded, earliest error raised."""
    matrix = [
        Cell(label="bad-a", workload="bfs", config=_faulty_config()),
        _cell("good", "kmeans"),
        Cell(label="bad-b", workload="kmeans", config=_faulty_config()),
    ]
    path = str(tmp_path / "sweep.jsonl")
    with SweepCheckpoint(path) as checkpoint:
        with pytest.raises(SimulationError) as excinfo:
            SweepExecutor(jobs=2, checkpoint=checkpoint, retries=1).run(
                matrix
            )
        # The raised error is the earliest failed *index*, not whichever
        # worker happened to finish first.
        assert excinfo.value.diagnostics["series"] == "bad-a"
        assert isinstance(excinfo.value, PTWError)
        failing = {f["error_type"] for f in checkpoint.failures}
        assert failing == {"PTWError"}
        assert len(checkpoint.failures) == 2
        # The healthy cell was not lost to its neighbors' failures.
        assert checkpoint.completed == 1


def test_serial_failure_aborts_at_first_failing_cell(tmp_path):
    matrix = [
        Cell(label="bad", workload="bfs", config=_faulty_config()),
        _cell("good", "kmeans"),
    ]
    path = str(tmp_path / "sweep.jsonl")
    with SweepCheckpoint(path) as checkpoint:
        with pytest.raises(PTWError):
            SweepExecutor(jobs=1, checkpoint=checkpoint).run(matrix)
        assert checkpoint.completed == 0  # aborted before the good cell
        assert len(checkpoint.failures) == 1
