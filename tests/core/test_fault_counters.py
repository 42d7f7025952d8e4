"""Zero-stripped CoreStats fault counters survive the result JSON.

Fault-free results serialize without the ``CoreStats.FAULT_FIELDS``
keys (pinning byte-identity with pre-fault-subsystem goldens); faulty
results carry them.  Both shapes must round-trip exactly through
``SimulationResult`` JSON.
"""

from __future__ import annotations

import json

from helpers import small_config

from repro.core.results import SimulationResult
from repro.faults.config import FaultConfig
from repro.parallel.cells import Cell, simulate_cell
from repro.stats.counters import CoreStats


def _paging_cell() -> Cell:
    config = small_config(
        faults=FaultConfig(
            enabled=True,
            demand_paging=True,
            major_fault_cycles=200,
            minor_fault_cycles=30,
            minor_fraction=0.5,
            seed=5,
        )
    )
    return Cell("paged", "bfs", config)


def test_nonzero_fault_counters_roundtrip_result_json():
    result = simulate_cell(_paging_cell())
    total_faults = (
        result.stats.page_faults_minor + result.stats.page_faults_major
    )
    assert total_faults > 0, "paging cell produced no page faults"
    data = json.loads(result.to_json())
    present = [f for f in CoreStats.FAULT_FIELDS if f in data["stats"]]
    assert present, "nonzero fault counters were stripped"
    again = SimulationResult.from_dict(data)
    assert again.canonical_json() == result.canonical_json()


def test_zero_fault_counters_are_stripped_then_restored_as_zero():
    result = simulate_cell(Cell("clean", "bfs", small_config()))
    data = result.to_dict()
    for field in CoreStats.FAULT_FIELDS:
        assert field not in data["stats"]
    again = SimulationResult.from_dict(json.loads(json.dumps(data)))
    for field in CoreStats.FAULT_FIELDS:
        assert getattr(again.stats, field) == 0
    assert again.canonical_json() == result.canonical_json()
