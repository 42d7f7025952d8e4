"""SweepExecutor: ordering, resume, one simulation per content key,
failures."""

from __future__ import annotations

import io
import json
import time

import pytest

from helpers import small_config

from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError, SimulationError, SimulationHang
from repro.harness.experiment import run_matrix, sweep_session
from repro.obs import log as _log
from repro.parallel import cells, pool
from repro.parallel.cache import ResultCache
from repro.parallel.cells import Cell
from repro.parallel.pool import SweepExecutor
from repro.prof.registry import REGISTRY

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
    matrix = [
        _cell(f"c{index}", warmup_instructions=index) for index in range(4)
    ]
    started = time.monotonic()
    SweepExecutor(jobs=2).run(matrix)
    wall = time.monotonic() - started
    assert len(timed) == len(matrix)
    assert max(in_flight) <= 2
    assert sum(timed) <= 2 * wall


def test_parallel_sweep_populates_the_cache(tmp_path, monkeypatch):
    matrix = [_cell("a", "bfs"), _cell("a", "kmeans")]
    first = SweepExecutor(jobs=2, cache=ResultCache(str(tmp_path))).run(matrix)
    cache = ResultCache(str(tmp_path))
    assert len(cache) == 2

    def _boom(*args, **kwargs):
        raise AssertionError("cell was re-simulated despite the cache")

    # A fresh executor resolves everything from the cache alone.
    monkeypatch.setattr(cells, "simulate_cell", _boom)
    resumed = SweepExecutor(jobs=2, cache=cache).run(matrix)
    assert [r.canonical_json() for r in resumed] == [
        r.canonical_json() for r in first
    ]
    assert cache.hits == 2


def test_killed_sweep_resumes_without_resimulating(tmp_path, monkeypatch):
    """A sweep dying mid-matrix resumes from the cache."""
    cache_dir = str(tmp_path / "cache")
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
        with sweep_session(cache_dir=cache_dir):
            run_matrix(configs, workloads=WORKLOADS)
    assert seen == WORKLOADS  # first cell completed, second died

    # Resume: the completed cell must come from the cache.
    resumed_calls = []

    def _counts(cell, attempt=0):
        resumed_calls.append(cell.workload)
        return real(cell, attempt)

    monkeypatch.setattr(cells, "simulate_cell", _counts)
    with sweep_session(cache_dir=cache_dir):
        results = run_matrix(configs, workloads=WORKLOADS)
    assert resumed_calls == [WORKLOADS[1]]
    assert set(results["tiny"]) == set(WORKLOADS)


def test_parallel_failure_reports_earliest_cell(tmp_path):
    """Workers finish, healthy cells are cached, earliest error raised."""
    matrix = [
        Cell(label="bad-a", workload="bfs", config=_faulty_config()),
        _cell("good", "kmeans"),
        Cell(label="bad-b", workload="kmeans", config=_faulty_config()),
    ]
    cache = ResultCache(str(tmp_path))
    with pytest.raises(SimulationError) as excinfo:
        SweepExecutor(jobs=2, cache=cache, retries=1).run(matrix)
    # The raised error is the earliest failed *index*, not whichever
    # worker happened to finish first.
    assert excinfo.value.diagnostics["series"] == "bad-a"
    assert isinstance(excinfo.value, PTWError)
    # The healthy cell was not lost to its neighbors' failures.
    assert cache.stores == 1 and len(cache) == 1


def test_serial_failure_aborts_at_first_failing_cell(tmp_path):
    matrix = [
        Cell(label="bad", workload="bfs", config=_faulty_config()),
        _cell("good", "kmeans"),
    ]
    cache = ResultCache(str(tmp_path))
    with pytest.raises(PTWError):
        SweepExecutor(jobs=1, cache=cache).run(matrix)
    assert len(cache) == 0  # aborted before the good cell


def _counting_simulations(monkeypatch):
    """Count the in-process simulations (the serial path's)."""
    real = cells.simulate_cell
    calls = []

    def _counts(cell, attempt=0):
        calls.append(cell.describe())
        return real(cell, attempt)

    monkeypatch.setattr(cells, "simulate_cell", _counts)
    return calls


def test_a_cell_shared_by_two_calls_in_one_session_simulates_once(monkeypatch):
    calls = _counting_simulations(monkeypatch)
    with sweep_session():
        first = run_matrix({"a": lambda: small_config()}, workloads=["bfs"])
        second = run_matrix(
            {
                "b": lambda: small_config(),
                "c": lambda: small_config(warmup_instructions=3),
            },
            workloads=["bfs"],
        )
    assert calls == ["a/bfs", "c/bfs"]
    assert second["b"]["bfs"] is first["a"]["bfs"]


def test_outside_a_session_each_call_simulates_again(monkeypatch):
    calls = _counting_simulations(monkeypatch)
    configs = {"a": lambda: small_config()}
    first = run_matrix(configs, workloads=["bfs"])
    second = run_matrix(configs, workloads=["bfs"])
    assert calls == ["a/bfs", "a/bfs"]
    assert second["a"]["bfs"] is not first["a"]["bfs"]
    assert (
        second["a"]["bfs"].canonical_json()
        == first["a"]["bfs"].canonical_json()
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_two_labels_for_one_machine_simulate_once(jobs, tmp_path, monkeypatch):
    # Every simulation logs a run_start, in the parent or in a pool
    # worker (workers configure the run log from the environment).
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv("REPRO_LOG_JSONL", str(path))
    matrix = [_cell("a", "bfs"), _cell("b", "kmeans"), _cell("c", "bfs")]
    _log.configure_from_env()
    try:
        results = SweepExecutor(jobs=jobs).run(matrix)
    finally:
        _log.reset()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    starts = [r for r in records if r["event"] == "run_start"]
    assert sorted(r["workload"] for r in starts) == ["bfs", "kmeans"]
    assert results[2] is results[0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_finished_progress_line_is_written_once(jobs):
    stream = io.StringIO()
    matrix = [_cell("a", "bfs"), _cell("b", "kmeans"), _cell("c", "bfs")]
    SweepExecutor(jobs=jobs, progress_stream=stream).run(matrix)
    lines = stream.getvalue().splitlines()
    assert sum("3/3 cells" in line for line in lines) == 1, lines
    assert "3/3 cells" in lines[-1]


def test_a_memo_hit_counts_as_a_cache_hit():
    cache_hits = REGISTRY.counter("sweep_cells_total")
    before = cache_hits.value(source="cache")
    executor = SweepExecutor()
    executor.run([_cell("a", "bfs")])
    assert cache_hits.value(source="cache") == before
    # Same machine, another label, a later run: resolved from the memo.
    executor.run([_cell("b", "bfs")])
    assert cache_hits.value(source="cache") == before + 1
