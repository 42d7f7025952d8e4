"""Cross-engine observer differential: observers see the same run.

``test_identity`` pins that both engines produce byte-identical
*results*; this suite pins that the **observer outputs themselves** are
equivalent — the event engine emits traces, spans, and interval
samples natively from its next-event loop, and what every observer
records must match what it records under the reference cycle loop:

- the JSONL trace stream, compared both raw (the engines emit events
  in the same order, so the files are byte-identical) and after the
  canonical sort (the documented equivalence bar: order within a cycle
  is an implementation detail);
- the span recorder's aggregates — request count, total cycles,
  per-component cycle/count decompositions — with the additive-tiling
  ``mismatches`` counter at zero on both engines;
- the ring-derived histograms and the interval-sampler series carried
  on the result.

Plus the no-fallback guarantee: a traced + spanned event-engine run
never touches the cycle engine (its loop is poisoned during the run).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import simulate
from repro.core import presets
from repro.core.config import GPUConfig, TraceConfig
from repro.faults.config import FaultConfig
from repro.obs.spans import SpanRecorder, record_spans

_TINY = dict(num_cores=1, warps_per_core=8, warp_width=8)


def _preset(name: str, **overrides) -> GPUConfig:
    merged = dict(_TINY)
    merged.update(overrides)
    return GPUConfig.preset(name, **merged)


#: name -> (config, workload, form); a slice through the design space
#: (no-TLB baseline, port-limited naive TLB, CCWS and TCWS scheduling,
#: TBC compaction in blocks form, the augmented walker, injected TLB
#: shootdowns and invalidations).
CASES = {
    "no-tlb": (_preset("no_tlb"), "bfs", None),
    "naive": (_preset("naive", ports=3), "bfs", None),
    "ccws": (presets.with_ccws(_preset("naive", ports=3)), "kmeans", None),
    "tcws": (presets.with_tcws(_preset("naive", ports=3)), "bfs", None),
    "tbc": (
        presets.with_tbc(_preset("naive", ports=3, warmup_instructions=0), "tbc"),
        "bfs",
        "blocks",
    ),
    "augmented": (_preset("augmented"), "bfs", None),
    "faults": (
        _preset(
            "naive",
            ports=3,
            faults=FaultConfig(
                enabled=True,
                seed=7,
                tlb_shootdown_rate=0.02,
                tlb_invalidate_rate=0.05,
            ),
        ),
        "bfs",
        None,
    ),
}


def _observed_run(name: str, engine: str, tmp_path):
    """One traced + spanned + sampled run; returns every observer's
    output alongside the result."""
    config, workload, form = CASES[name]
    jsonl = tmp_path / f"{name}-{engine}.jsonl"
    config = dataclasses.replace(
        config,
        trace=TraceConfig(
            enabled=True,
            ring_capacity=4096,
            interval_cycles=250,
            jsonl_path=str(jsonl),
        ),
    )
    recorder = SpanRecorder(keep_slowest=5)
    with record_spans(recorder):
        result = simulate(
            config=config, workload=workload, form=form, engine=engine
        )
    return {
        "result": result.canonical_json(),
        "raw_trace": jsonl.read_text(),
        "spans": {
            "requests": recorder.requests,
            "total_cycles": recorder.total_cycles,
            "mismatches": recorder.mismatches,
            "component_cycles": dict(recorder.component_cycles),
            "component_counts": dict(recorder.component_counts),
            "histograms": {
                name: hist.to_dict()
                for name, hist in recorder.histograms.items()
            },
        },
        "histograms": result.histograms,
        "interval_series": result.interval_series,
    }


def _canonical(trace_text: str):
    """The documented equivalence bar: events sorted by (cycle, kind,
    core, track, payload) — ordering within a cycle is not contractual."""
    events = [json.loads(line) for line in trace_text.splitlines()]
    events.sort(
        key=lambda e: (
            e["cycle"],
            e["kind"],
            e.get("core", -1),
            e.get("track", ""),
            json.dumps(e.get("args"), sort_keys=True),
        )
    )
    return events


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Both engines over every case, once per module (runs are slow)."""
    tmp_path = tmp_path_factory.mktemp("observer-diff")
    return {
        (name, engine): _observed_run(name, engine, tmp_path)
        for name in CASES
        for engine in ("event", "cycle")
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_identical(runs, name):
    assert runs[(name, "event")]["result"] == runs[(name, "cycle")]["result"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_streams_equal_after_canonical_sort(runs, name):
    event = _canonical(runs[(name, "event")]["raw_trace"])
    cycle = _canonical(runs[(name, "cycle")]["raw_trace"])
    assert len(event) > 0
    assert event == cycle


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_streams_byte_identical(runs, name):
    """Stronger than the canonical bar and currently true: the event
    engine emits in the reference loop's exact order."""
    assert (
        runs[(name, "event")]["raw_trace"]
        == runs[(name, "cycle")]["raw_trace"]
    )


def test_fault_case_traces_injected_shootdowns(runs):
    """The faults case reaches the shootdown both engines share."""
    assert '"fault": "tlb_shootdown"' in runs[("faults", "cycle")]["raw_trace"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_span_decompositions_equal_and_tile(runs, name):
    event = runs[(name, "event")]["spans"]
    cycle = runs[(name, "cycle")]["spans"]
    assert event["mismatches"] == 0
    assert cycle["mismatches"] == 0
    assert event == cycle
    if name != "no-tlb":
        assert event["requests"] > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_histograms_and_interval_series_equal(runs, name):
    event = runs[(name, "event")]
    cycle = runs[(name, "cycle")]
    assert event["histograms"] == cycle["histograms"]
    assert event["interval_series"] == cycle["interval_series"]
    assert len(event["interval_series"]) > 0


def test_observed_event_run_never_touches_cycle_engine(
    tmp_path, monkeypatch
):
    """The no-fallback pin: poison the cycle engine's loop; a fully
    observed event-engine run must still complete."""
    from repro.engines.cycle import CycleEngine

    def poisoned(self, poll=None):  # pragma: no cover - must not run
        raise AssertionError(
            "cycle engine invoked during an event-engine observed run"
        )

    monkeypatch.setattr(CycleEngine, "run", poisoned)
    out = _observed_run("naive", "event", tmp_path)
    assert out["spans"]["requests"] > 0
    assert out["raw_trace"]
