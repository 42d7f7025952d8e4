"""The simulating process of the end-to-end benchmark.

``python simproc.py SPEC.json`` runs one job described by the spec and
writes its report to ``spec["report"]``.  Two modes:

``sweep``
    Import the program and build every workload the sweep uses, print
    one ``READY`` JSON line (build time and RSS), then wait for ``go``
    on stdin (anything else ends the process).  On ``go``: call ``repro.api.simulate``
    serially over the sweep's cells until the deadline, finish the fixed
    checked set, re-run a sample of it on the cycle engine, and, when
    traced, replay the checked set under the phase profiler.

``reference``
    Simulate service cells in-process: the oracle served and assembled
    results are compared against.  Traced, replay the layer cells under
    the phase profiler.

The profiler is installed only around replays of a fixed set of cells,
so per-layer host times measure the same work on every run whatever the
host's speed.  Timings leave this process raw, with the wall-clock
intervals they cover; the controller normalizes them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import cells
from common import GATE_CELLS, compare, fingerprint, put

#: Peak RSS is read once this many window cells have run: the run-time
#: memo caches grow over the first pass, so a reading at a fixed amount
#: of work does not depend on the host's speed.
RSS_CELLS = 60

#: Profiler phase → per-layer metric (self time: the phases partition
#: the profiled wall time with no double counting).
PHASE_METRICS = (
    ("engines.loop_self_s", "simulate"),
    ("engines.event_skip_s", "event_skip"),
    ("tlb.lookup_s", "tlb_lookup"),
    ("ptw.walk_s", "ptw_walk"),
    ("ptw.schedule_s", "ptw_schedule"),
    ("mem.l1_s", "cache_l1"),
    ("mem.l2_s", "cache_l2"),
    ("mem.dram_s", "dram"),
    ("gpu.scheduler_s", "warp_scheduler"),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _timed(thunk: Callable) -> Tuple[Any, float]:
    began = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - began


def replay(thunks: List[Callable], warm: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Run each of ``thunks`` plain and then under the phase profiler,
    cell by cell, so host-speed drift hits both sides alike.

    Returns the per-layer metrics and any mismatch between the plain and
    profiled results (profiling must not perturb them).
    """
    from repro.prof.profiler import PhaseProfiler, profile

    if not warm:
        for thunk in thunks:
            thunk()
    profiler = PhaseProfiler()
    plain_walls, traced_walls, results, mismatches = [], [], [], []
    for index, thunk in enumerate(thunks):
        plain, wall = _timed(thunk)
        plain_walls.append(wall)
        with profile(profiler):
            result, wall = _timed(thunk)
        traced_walls.append(wall)
        results.append(result)
        if result.canonical_json() != plain.canonical_json():
            mismatches.append(f"profiled replay of cell {index} differs from the plain run")
    phases = profiler.to_dict()["phases"]
    metrics: Dict[str, Any] = {}
    for name, phase in PHASE_METRICS:
        put(metrics, name, phases.get(phase, {}).get("self_s", 0.0), "s")
    put(metrics, "gpu.scheduler_calls",
        phases.get("warp_scheduler", {}).get("calls", 0), "count")
    simulate_s = phases["simulate"]["total_s"]
    stats = [r.stats for r in results]
    cycles = sum(r.cycles for r in results)
    put(metrics, "engines.host_ns_per_cycle", simulate_s * 1e9 / cycles, "ns")
    lookups = sum(s.tlb_lookups for s in stats)
    put(metrics, "tlb.lookups", lookups, "count")
    put(metrics, "tlb.hit_rate", _ratio(sum(s.tlb_hits for s in stats), lookups), "ratio")
    put(metrics, "ptw.walks", sum(s.walks for s in stats), "count")
    put(metrics, "ptw.refs_saved_frac", 1.0 - _ratio(
        sum(s.walk_refs_issued for s in stats),
        sum(s.walk_refs_naive for s in stats)), "ratio")
    l1_hits = sum(r.l1_hits for r in results)
    l2_hits = sum(r.l2_hits for r in results)
    put(metrics, "mem.l1_hit_rate",
        _ratio(l1_hits, l1_hits + sum(r.l1_misses for r in results)), "ratio")
    put(metrics, "mem.l2_hit_rate",
        _ratio(l2_hits, l2_hits + sum(r.l2_misses for r in results)), "ratio")
    put(metrics, "api.outside_loop_s", sum(traced_walls) - simulate_s, "s")
    put(metrics, "trace.overhead", sum(traced_walls) / sum(plain_walls), "ratio")
    return metrics, mismatches


def observed_slice(thunks: List[Callable]) -> Tuple[Dict[str, Any], List[str]]:
    """Run each of ``thunks`` plain and then fully observed (event
    tracing + span recording), cell by cell; results must stay
    byte-identical."""
    from repro.core.simulator import trace_override
    from repro.harness.bench import OBSERVED_TRACE
    from repro.obs.spans import SpanRecorder, record_spans

    recorder = SpanRecorder(keep_slowest=5)
    plain_s = observed_s = 0.0
    mismatches = []
    for index, thunk in enumerate(thunks):
        plain, wall = _timed(thunk)
        plain_s += wall
        with trace_override(OBSERVED_TRACE), record_spans(recorder):
            observed, wall = _timed(thunk)
        observed_s += wall
        # Traced runs attach their samples and histograms; the rest of
        # the result must match the plain run exactly.
        observed.interval_series = []
        observed.histograms = {}
        if observed.canonical_json() != plain.canonical_json():
            mismatches.append(f"observed run of fig10 slice cell {index} differs")
    if recorder.mismatches:
        mismatches.append(f"{recorder.mismatches} span trees did not tile")
    metrics: Dict[str, Any] = {}
    put(metrics, "obs.plain_slice_s", plain_s, "s")
    put(metrics, "obs.observed_slice_s", observed_s, "s")
    put(metrics, "obs.observed_overhead", observed_s / plain_s, "ratio")
    return metrics, mismatches


def run_sweep(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import simulate
    from repro.faults.errors import SimulationError

    rss_after_import = _peak_rss_mb()
    seed = spec["seed"]
    points = cells.SWEEP_POINTS[spec["workload"]]
    start = time.perf_counter()
    workloads = {name: cells.workload_for(seed, name) for name in cells.WORKLOADS}
    build_s = time.perf_counter() - start
    print(json.dumps({
        "build_s": build_s,
        "rss_after_import_mb": rss_after_import,
        "rss_after_build_mb": _peak_rss_mb(),
    }), flush=True)
    if sys.stdin.readline().strip() != "go":
        return {}

    configs = [point.config() for point in points]

    def thunk(cell: cells.SweepCell, engine=None) -> Callable:
        index, name = cell
        return lambda: simulate(
            config=configs[index],
            workload=workloads[name],
            form=points[index].form,
            engine=engine,
        )

    order = cells.sweep_order(points, seed)
    checked = cells.checked_cells(points, seed, spec.get("checked_limit"))
    wanted = {cells.cell_key(points, cell) for cell in checked}
    results: Dict[str, str] = {}
    records: List[Dict[str, Any]] = []
    failed = 0
    window_start_wall = time.time()
    window_start = time.perf_counter()
    deadline = window_start + spec["seconds"]
    while time.perf_counter() < deadline:
        cell = order[len(records) % len(order)]
        key = cells.cell_key(points, cell)
        began_wall = time.time()
        began = time.perf_counter()
        try:
            result = thunk(cell)()
        except SimulationError as exc:
            failed += 1
            records.append({"key": key, "start": began_wall, "error": str(exc)})
            continue
        records.append({
            "key": key,
            "start": began_wall,
            "wall_s": time.perf_counter() - began,
            "instructions": result.stats.instructions,
            "cycles": result.cycles,
        })
        if key in wanted and key not in results:
            results[key] = result.canonical_json()
        if len(records) == RSS_CELLS:
            peak_rss = _peak_rss_mb()
    window_s = time.perf_counter() - window_start
    if len(records) < RSS_CELLS:
        peak_rss = _peak_rss_mb()

    for cell in checked:
        key = cells.cell_key(points, cell)
        if key not in results:
            results[key] = thunk(cell)().canonical_json()
    oracle = {
        cells.cell_key(points, cell): thunk(cell, engine="cycle")().canonical_json()
        for cell in cells.sample(checked, GATE_CELLS, seed, "gate")
    }
    mismatches = compare(results, oracle, "event and cycle engines disagree")
    report: Dict[str, Any] = {
        "cells": records,
        "failed": failed,
        "window_start": window_start_wall,
        "window_s": window_s,
        "peak_rss_mb": peak_rss,
        "fingerprint": fingerprint(
            [results[cells.cell_key(points, c)] for c in checked]),
        "mismatches": mismatches,
    }
    if spec["trace"]:
        began = time.time()
        layers, bad = replay([thunk(c) for c in checked], warm=True)
        mismatches.extend(bad)
        if spec["workload"] == "mmu-sweep":
            names = cells.sample(list(cells.WORKLOADS), 2, seed, "fig10")
            slice_cells = [
                (index, name)
                for index, point in enumerate(points)
                if point.label in cells.FIG10_LABELS
                for name in names
            ]
            obs, bad = observed_slice([thunk(c) for c in slice_cells])
            layers.update(obs)
            mismatches.extend(bad)
        report["layers"] = layers
        report["layers_interval"] = [began, time.time()]
    return report


def run_reference(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import simulate

    def thunk(cell: cells.ServiceCell) -> Callable:
        return lambda: simulate(config=cells.service_config(cell), workload=cell[1])

    report: Dict[str, Any] = {
        "results": {
            cells.service_key(tuple(cell)): thunk(tuple(cell))().canonical_json()
            for cell in spec["cells"]
        },
        "mismatches": [],
    }
    if spec["trace"]:
        began = time.time()
        report["layers"], report["mismatches"] = replay(
            [thunk(tuple(cell)) for cell in spec["layer_cells"]], warm=False)
        report["layers_interval"] = [began, time.time()]
    return report


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    run = run_sweep if spec["mode"] == "sweep" else run_reference
    report = run(spec)
    if report:
        Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
