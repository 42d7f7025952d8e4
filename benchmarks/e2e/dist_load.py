"""The ``dist-sweep`` workload.

A daemon with ``--dist-journal`` plus two ``harness worker --poll 0.05``
processes.  The generator shards the sweep in rounds of seeded service
cells (each round under its own label, so every round's cells are new
to the coordinator), polls ``/dist/status`` every 20 ms until the round
is terminal, and assembles it.  It then re-shards the same round once:
the already-done read path.  The slowest worker sets each round's wall
time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import cells
from common import (
    GATE_CELLS,
    HostSpeed,
    Http,
    Outcome,
    Plan,
    Spans,
    Timed,
    available_cpus,
    compare,
    end_to_end,
    fingerprint,
    median,
    percentile,
    prometheus_sum,
    put,
    read_jsonl,
    sampling,
    scale_times,
)
from fleet import Fleet, reference

WORKERS = 2
ROUND_CELLS = 24
SMOKE_ROUND_CELLS = 6
#: Peak RSS is read after this many rounds: how many rounds fit the
#: window depends on the host's speed.
RSS_ROUNDS = 3
POLL_S = 0.02
#: A round not terminal after this long fails the run.
ROUND_TIMEOUT_S = 120.0


def wire_cells(round_cells: List[cells.ServiceCell], label: str) -> List[Dict[str, Any]]:
    """The cells in ``POST /dist/shard`` wire form."""
    from repro.dist.protocol import cell_to_wire
    from repro.parallel.cells import Cell
    from repro.workloads.base import TIMING_MISS_SCALE

    return [
        cell_to_wire(Cell(
            label=label,
            workload=cell[1],
            config=cells.service_config(cell),
            miss_scale=TIMING_MISS_SCALE,
        ))
        for cell in round_cells
    ]


class Round:
    """One shard → terminal → assemble cycle, timed by the generator."""

    def __init__(self, http: Http, batch: List[cells.ServiceCell], label: str, base: int):
        self.cells = batch
        self.label = label
        wires = wire_cells(batch, label)
        self.start = time.perf_counter()
        self.start_wall = time.time()
        status, body = http.request("POST", "/dist/shard", {"cells": wires})
        if status != 200:
            raise RuntimeError(f"shard refused: HTTP {status} {body}")
        self.keys: List[str] = body["keys"]
        self.shard_s = time.perf_counter() - self.start
        # Counts are cumulative over every round, and earlier rounds are
        # all terminal, so this round's completions are the excess.
        self.completions: List[float] = []
        while len(self.completions) < len(self.keys):
            status, state = http.request("GET", "/dist/status")
            now = time.perf_counter()
            finished = state["cells"]["done"] + state["cells"]["failed"] - base
            self.completions.extend([now] * (finished - len(self.completions)))
            if now - self.start > ROUND_TIMEOUT_S:
                raise RuntimeError(f"round {label} did not finish")
            if len(self.completions) < len(self.keys):
                time.sleep(POLL_S)
        began = time.perf_counter()
        self.rows = http.request("POST", "/dist/assemble", {"keys": self.keys})[1]["cells"]
        self.end = time.perf_counter()
        self.assemble_s = self.end - began
        # The already-done read path: same cells, no new work.
        again = http.request("POST", "/dist/shard", {"cells": wires})[1]["keys"]
        rows = http.request("POST", "/dist/assemble", {"keys": again})[1]["cells"]
        self.resubmit_s = time.perf_counter() - self.end
        self.stable = again == self.keys and rows == self.rows

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def results(self) -> List[Optional[str]]:
        return [row["result"] if row["state"] == "done" else None for row in self.rows]


def join_run_logs(
    coordinator: List[Dict[str, Any]], workers: List[List[Dict[str, Any]]]
) -> Dict[str, Dict[str, float]]:
    """Per cell key: coordinator ``dist_shard``/``dist_lease``/
    ``dist_complete`` and worker ``worker_lease``/``run_start``/
    ``run_end`` timestamps, plus the index of the worker that ran it.
    A worker runs one cell at a time, so its simulator records belong to
    the cell it last leased."""
    stages: Dict[str, Dict[str, float]] = {}
    for record in coordinator:
        if record["event"] in ("dist_shard", "dist_lease", "dist_complete"):
            stages.setdefault(record["cell"], {}).setdefault(record["event"], record["ts"])
    for index, records in enumerate(workers):
        current = None
        for record in records:
            event = record["event"]
            if event == "worker_lease":
                current = record["cell"]
                marks = stages.setdefault(current, {})
                marks["worker_lease"] = record["ts"]
                marks["worker"] = index
            elif event in ("run_start", "run_end") and current is not None:
                stages[current].setdefault(event, record["ts"])
    return stages


STAGES = (
    ("lease_wait", "dist_shard", "dist_lease"),
    ("lease_to_run", "worker_lease", "run_start"),
    ("execute", "run_start", "run_end"),
    ("push_verify", "run_end", "dist_complete"),
)


def run(seed: int, plan: Plan, workdir: Path) -> Outcome:
    spans = Spans()
    round_size = SMOKE_ROUND_CELLS if plan.smoke else ROUND_CELLS
    pool: Iterator[cells.ServiceCell] = cells.service_pool(seed)
    cpus = available_cpus()
    worker_cpus = [cpus[i % len(cpus)] for i in range(WORKERS)]
    setup: List[List[float]] = []
    rounds: List[Round] = []
    fleet = None
    with sampling(workdir, sorted(set(worker_cpus))) as speed_files:
        try:
            for attempt in range(plan.setup_starts):
                fleet = Fleet(workdir / f"fleet{attempt}", plan.trace, worker_cpus=worker_cpus)
                began_wall, began = time.time(), time.perf_counter()
                fleet.start()
                setup.append([began_wall, began_wall + time.perf_counter() - began])
                spans.add("setup", *setup[-1], request=f"start{attempt}")
                if attempt + 1 < plan.setup_starts:
                    fleet.close()
            rss_setup = fleet.rss_mb("VmRSS")
            # Untimed warm-up: two cells per workload, so each worker has
            # built its workloads before the first measured round.
            warm = [(preset, name, 1) for name in cells.WORKLOADS
                    for preset in ("no_tlb", "augmented")]
            Round(fleet.http, warm, "e2e-warmup", 0)
            sharded = len(warm)
            # Start a round only while a typical one still fits the window.
            deadline = time.perf_counter() + plan.window_s
            while not rounds or (
                time.perf_counter() + median([r.wall_s for r in rounds]) <= deadline
            ):
                batch = [next(pool) for _ in range(round_size)]
                rounds.append(Round(fleet.http, batch, f"e2e-r{len(rounds)}", sharded))
                sharded += round_size
                if len(rounds) == RSS_ROUNDS:
                    peak_rss = fleet.rss_mb("VmHWM")
            if len(rounds) < RSS_ROUNDS:
                peak_rss = fleet.rss_mb("VmHWM")
            metrics_text = fleet.http.request("GET", "/metrics")[1]
            journal_bytes = (fleet.dir / "cells.jsonl").stat().st_size
            logs = (fleet.run_log("daemon"),
                    [fleet.run_log(f"worker{i}") for i in range(WORKERS)])
        finally:
            if fleet is not None:
                fleet.close()
        # The checked set: the first round, fixed by the seed.
        first = rounds[0]
        checked = dict(zip(map(cells.service_key, first.cells), first.results()))
        oracle = reference(
            workdir,
            [list(cell) for cell in cells.sample(first.cells, GATE_CELLS, seed, "gate")],
            [list(cell) for cell in cells.layer_cells(seed)],
            plan.trace,
            worker_cpus[0],
        )
    speed = HostSpeed.load(speed_files)

    mismatches = compare(checked, oracle["results"],
                         "assembled result differs from in-process simulate")
    mismatches.extend(oracle["mismatches"])
    prints = fingerprint([text for text in checked.values() if text is not None])
    failed = 0
    instructions = 0
    busy: List[Timed] = []
    latencies: List[Timed] = []
    for rnd in rounds:
        results = rnd.results()
        failed += sum(1 for text in results if text is None)
        instructions += sum(json.loads(text)["stats"]["instructions"]
                            for text in results if text is not None)
        if not rnd.stable:
            mismatches.append(f"round {rnd.label}: re-shard did not return the same cells")
        slow = speed.slowdown(worker_cpus, rnd.start_wall, rnd.start_wall + rnd.wall_s)
        busy.append((rnd.wall_s, slow))
        latencies.extend((t - rnd.start, slow) for t in rnd.completions)

    metrics: Dict[str, Any] = {}
    put(metrics, "dist.shard_s", median([r.shard_s for r in rounds]), "s")
    put(metrics, "dist.assemble_s", median([r.assemble_s for r in rounds]), "s")
    put(metrics, "dist.resubmit_s", median([r.resubmit_s for r in rounds]), "s")
    put(metrics, "dist.stale",
        int(prometheus_sum(metrics_text, "dist_stale_results_total")), "count")
    put(metrics, "dist.rejected",
        int(prometheus_sum(metrics_text, "dist_rejected_results_total")), "count")
    put(metrics, "dist.lease_expirations",
        int(prometheus_sum(metrics_text, "dist_lease_expirations_total")), "count")
    put(metrics, "dist.cell_journal_bytes", journal_bytes, "bytes")
    put(metrics, "rounds", len(rounds), "count")

    parents: Dict[str, int] = {}
    for rnd in rounds:
        span = spans.add("dist.round", rnd.start_wall, rnd.start_wall + rnd.wall_s,
                         request=rnd.label)
        spans.add("dist.shard", rnd.start_wall, rnd.start_wall + rnd.shard_s,
                  request=rnd.label, parent=span)
        parents.update((key, span) for key in rnd.keys)
    if plan.trace:
        daemon_log, worker_logs = logs
        stages = join_run_logs(read_jsonl(daemon_log),
                               [read_jsonl(path) for path in worker_logs])
        waits: Dict[str, List[float]] = {name: [] for name, _, _ in STAGES}
        execute: List[float] = []
        for key, parent in parents.items():
            marks = stages.get(key, {})
            for name, begin, end in STAGES:
                if begin in marks and end in marks:
                    spans.add(f"dist.{name}", marks[begin], marks[end],
                              request=key, parent=parent)
                    waits[name].append(marks[end] - marks[begin])
            if "run_start" in marks and "run_end" in marks:
                cpu = worker_cpus[marks["worker"]]
                execute.append((marks["run_end"] - marks["run_start"])
                               / speed.slowdown([cpu], marks["run_start"], marks["run_end"]))
        metrics.update(scale_times(oracle["layers"], speed.slowdown(
            [worker_cpus[0]], *oracle["layers_interval"])))
        put(metrics, "exec.cell_p50_s", percentile(execute, 50), "s")
        put(metrics, "exec.cell_p90_s", percentile(execute, 90), "s")
        put(metrics, "proc.rss_setup_mb", rss_setup, "MB")
        put(metrics, "sim.fingerprint_cycles", prints["cycles"], "count")
        put(metrics, "sim.fingerprint_instructions", prints["instructions"], "count")
        for name, _, _ in STAGES:
            if name != "execute":
                put(metrics, f"dist.{name}_p50_s", percentile(waits[name], 50), "s")
        put(metrics, "dist.worker_busy_frac",
            sum(waits["execute"]) / (WORKERS * sum(r.wall_s for r in rounds)), "ratio")
    else:
        end_to_end(
            metrics,
            setup=[(end - start, speed.slowdown(worker_cpus, start, end))
                   for start, end in setup],
            done=len(latencies),
            busy=busy,
            latencies=latencies,
            instructions=instructions,
            peak_rss_mb=peak_rss,
        )
    return Outcome(
        metrics=metrics,
        attempted=sum(len(r.keys) for r in rounds),
        failed=failed,
        mismatches=mismatches,
        digest=prints["digest"],
        spans=spans,
    )
