"""State-dict round trips: JSON purity and load/save idempotence."""

from __future__ import annotations

import json

from repro.core.config import GPUConfig
from repro.core.simulator import Simulator
from repro.parallel.cells import Cell, reseeded, simulate_cell
from repro.snapshot.store import try_read_snapshot
from repro.workloads.registry import get_workload

_TINY = dict(num_cores=2, warps_per_core=8, warp_width=8)


def _rebuild(cell: Cell) -> Simulator:
    """Build the cell's simulator exactly as the resume path does."""
    config = reseeded(cell.config, 0)
    source = get_workload(cell.workload)
    work = source.build(config, form=cell.form, miss_scale=cell.miss_scale)
    return Simulator(config, work, source.name)


def _canon(state) -> str:
    return json.dumps(state, sort_keys=True)


def test_midrun_state_is_json_pure_and_reload_stable(tmp_path):
    cell = Cell(
        "naive-tlb", "bfs", GPUConfig.preset("naive", ports=3, **_TINY)
    )
    snap = str(tmp_path / "snap.json")
    simulate_cell(cell, snapshot_path=snap, snapshot_every=150)
    envelope = try_read_snapshot(snap)
    assert envelope is not None
    assert envelope["cycle"] > 0
    state = envelope["state"]
    # The envelope came through json.dumps/loads already, so reaching
    # here proves JSON purity; pin it explicitly anyway.
    assert json.loads(json.dumps(state)) == state
    # load_state(state) followed by state_dict() must reproduce the
    # same state — the idempotence the restart path relies on.
    simulator = _rebuild(cell)
    simulator.load_state(state)
    assert _canon(simulator.state_dict()) == _canon(state)


def test_completed_run_state_roundtrips(tmp_path):
    cell = Cell("aug", "kmeans", GPUConfig.preset("augmented", **_TINY))
    simulator = _rebuild(cell)
    simulator.run()
    state = json.loads(json.dumps(simulator.state_dict()))
    other = _rebuild(cell)
    other.load_state(state)
    assert _canon(other.state_dict()) == _canon(state)
