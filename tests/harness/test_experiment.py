"""Harness plumbing."""

import pytest

from repro.api import figure
from repro.core import presets
from repro.core.results import SimulationResult
from repro.harness.experiment import (
    FigureResult,
    run_matrix,
    speedups_vs_baseline,
)
from repro.harness.figures import ALL_FIGURES
from repro.parallel import cells
from repro.stats.counters import CoreStats


class TestFigureResult:
    def test_render_contains_series(self):
        figure = FigureResult(
            figure="figX",
            title="demo",
            series={"s": {"bfs": 0.5}},
            notes=["caveat"],
        )
        text = figure.render()
        assert "figX" in text and "bfs" in text and "caveat" in text


class TestRunners:
    def test_matrix_and_speedups(self):
        results = run_matrix(
            {
                "base": lambda: presets.no_tlb(warmup_instructions=20),
                "naive": lambda: presets.naive_tlb(
                    ports=4, warmup_instructions=20
                ),
            },
            workloads=["kmeans"],
        )
        series = speedups_vs_baseline(results, "base")
        assert set(series) == {"naive"}
        assert 0 < series["naive"]["kmeans"] < 1.5


@pytest.mark.parametrize("name", sorted(ALL_FIGURES))
def test_every_figure_runs_its_cells_through_the_session(name, monkeypatch):
    # The stub stands in for the simulator, so no simulation runs; a
    # driver that bypassed run_matrix would miss it (and the engine).
    engines = []

    def _stub(cell, attempt=0):
        engines.append(cell.config.engine)
        return SimulationResult(
            workload=cell.workload,
            config_description="stub",
            cycles=1,
            stats=CoreStats(),
        )

    monkeypatch.setattr(cells, "simulate_cell", _stub)
    figure(name=name, workloads=["kmeans"], engine="cycle")
    assert engines, f"{name} simulated no cell through the sweep session"
    assert set(engines) == {"cycle"}
