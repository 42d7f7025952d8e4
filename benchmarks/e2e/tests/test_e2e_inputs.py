"""Inputs are a pure function of the seed."""

import dataclasses
import itertools

import cells
import serve_load
from repro.workloads.registry import get_spec


def _dist_rounds(seed, count=3, size=24):
    pool = cells.service_pool(seed)
    return [[next(pool) for _ in range(size)] for _ in range(count)]


def _inputs(seed):
    return {
        "mmu": cells.sweep_order(cells.MMU_POINTS, seed),
        "sched": cells.sweep_order(cells.SCHED_POINTS, seed),
        "checked": cells.checked_cells(cells.MMU_POINTS, seed),
        "serve": serve_load.schedule(cells.service_pool(seed), seed, 60),
        "dist": _dist_rounds(seed),
        "layers": cells.layer_cells(seed),
    }


def test_same_seed_same_inputs():
    assert _inputs(3) == _inputs(3)


def test_different_seed_different_inputs():
    first, second = _inputs(3), _inputs(4)
    for name in first:
        assert first[name] != second[name], name


def test_sweep_order_covers_every_cell_once_and_cycles_workloads():
    order = cells.sweep_order(cells.SCHED_POINTS, 5)
    assert sorted(order) == sorted(
        itertools.product(range(len(cells.SCHED_POINTS)), cells.WORKLOADS))
    width = len(cells.WORKLOADS)
    for start in range(0, len(order), width):
        assert {name for _, name in order[start:start + width]} == set(cells.WORKLOADS)


def test_serve_schedule_repeats_every_third_request():
    plan = serve_load.schedule(cells.service_pool(9), 9, 30)
    fresh = [cell for index, cell in enumerate(plan) if index % 3 != 2]
    assert len(set(fresh)) == len(fresh)
    for index in range(2, 30, 3):
        assert plan[index] in plan[:index]


def test_seed_zero_keeps_calibrated_specs():
    for name in cells.WORKLOADS:
        assert cells.workload_for(0, name).spec == get_spec(name)
        derived = cells.workload_for(7, name).spec
        assert derived.seed != get_spec(name).seed
        assert derived == cells.workload_for(7, name).spec


def test_a_spec_whose_trace_overflows_is_skipped(monkeypatch):
    # Spec seed 1268345039 makes mummergpu's block-form Zipf draw
    # overflow a float in the trace generator.
    spec = get_spec("mummergpu")
    bad = dataclasses.replace(spec, seed=1268345039)
    good = dataclasses.replace(spec, seed=1)
    monkeypatch.setattr(cells, "candidate_specs", lambda seed, name: iter([bad, good]))
    assert cells.workload_for(5, "mummergpu").spec == good


def test_design_points_build_distinct_configs():
    for points in cells.SWEEP_POINTS.values():
        keys = {(p.config().stable_hash(), p.form) for p in points}
        assert len(keys) == len(points)
