"""The hard guarantee: resume(snapshot at cycle N) == uninterrupted run.

Each pin runs a cell three ways — uninterrupted, while writing periodic
mid-run snapshots, and resumed *from* the last mid-run snapshot — and
asserts all three results are byte-identical (``canonical_json``).  The
resumed run exercises exactly the supervised pool's restart path: a
fresh :class:`Simulator` built from the cell plus ``load_state`` of the
on-disk envelope.

The cells mirror Figure 2 (naive TLBs under CCWS and TBC) and
Figure 11 (walker pools vs one augmented walker), shrunk to the test
machine; the observed variants repeat the pin with the event tracer
and the phase profiler enabled, which must not perturb results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import pytest

from repro.core import presets
from repro.core.config import GPUConfig, TraceConfig
from repro.parallel.cells import Cell, simulate_cell
from repro.prof import profiler

_TINY = dict(num_cores=1, warps_per_core=8, warp_width=8)


def _preset(name: str, **overrides) -> GPUConfig:
    merged = dict(_TINY)
    merged.update(overrides)
    return GPUConfig.preset(name, **merged)


PIN_CELLS = {
    # Figure 2: the naive-TLB degradation matrix.
    "fig02-no-tlb": Cell("no-tlb", "bfs", _preset("no_tlb")),
    "fig02-naive": Cell("naive-tlb", "bfs", _preset("naive", ports=3)),
    "fig02-ccws": Cell(
        "ccws+naive-tlb",
        "kmeans",
        presets.with_ccws(_preset("naive", ports=3)),
    ),
    "fig02-tbc": Cell(
        "tbc+naive-tlb",
        "bfs",
        presets.with_tbc(
            _preset("naive", ports=3, warmup_instructions=0), "tbc"
        ),
        form="blocks",
    ),
    # Figure 11: walker pools vs the augmented walker.
    "fig11-ptw4": Cell(
        "naive x4 PTW", "kmeans", presets.multi_ptw_tlb(4, **_TINY)
    ),
    "fig11-aug": Cell("augmented x1 PTW", "bfs", _preset("augmented")),
}


def _observed(cell: Cell, traced: bool) -> Cell:
    if not traced:
        return cell
    config = dataclasses.replace(
        cell.config,
        trace=TraceConfig(
            enabled=True, ring_capacity=4096, interval_cycles=250
        ),
    )
    return Cell(cell.label, cell.workload, config, cell.form, cell.miss_scale)


def assert_resume_identical(cell: Cell, tmp_path, profiled: bool = False):
    snap = str(tmp_path / "snap.json")

    def run(**kwargs):
        guard = profiler.profile() if profiled else contextlib.nullcontext()
        with guard:
            return simulate_cell(cell, **kwargs)

    baseline = run().canonical_json()
    # Same cell, now leaving periodic snapshots behind; the snapshots
    # must be observation-only.
    snapshotting = run(snapshot_path=snap, snapshot_every=150)
    assert snapshotting.canonical_json() == baseline
    assert os.path.exists(snap), "cell finished without one snapshot"
    # Resume from the last mid-run snapshot (a huge period stops any
    # further writes): the supervised pool's post-SIGKILL path.
    resumed = run(snapshot_path=snap, snapshot_every=1 << 30)
    assert resumed.canonical_json() == baseline


@pytest.mark.parametrize("name", sorted(PIN_CELLS))
def test_resume_is_byte_identical(name, tmp_path):
    assert_resume_identical(PIN_CELLS[name], tmp_path)


@pytest.mark.parametrize("name", ["fig02-naive", "fig02-tbc", "fig11-aug"])
@pytest.mark.parametrize(
    "traced,profiled",
    [(True, False), (False, True), (True, True)],
    ids=["traced", "profiled", "traced+profiled"],
)
def test_resume_is_byte_identical_under_observation(
    name, traced, profiled, tmp_path
):
    cell = _observed(PIN_CELLS[name], traced)
    assert_resume_identical(cell, tmp_path, profiled=profiled)


def test_stale_snapshot_is_discarded_not_resumed(tmp_path):
    # Another cell's snapshot at the path (a pool slot reused, or an
    # earlier attempt's) must neither be resumed nor fail the run.
    snap = str(tmp_path / "snap.json")
    simulate_cell(PIN_CELLS["fig02-naive"], snapshot_path=snap, snapshot_every=150)
    assert os.path.exists(snap)
    cell = PIN_CELLS["fig11-aug"]
    baseline = simulate_cell(cell).canonical_json()
    resumed = simulate_cell(cell, snapshot_path=snap, snapshot_every=1 << 30)
    assert resumed.canonical_json() == baseline
    assert not os.path.exists(snap), "the stale snapshot was kept"
