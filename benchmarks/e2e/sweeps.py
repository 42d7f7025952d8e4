"""The ``mmu-sweep`` and ``sched-sweep`` workloads.

Serial ``repro.api.simulate`` calls, one per design-point cell, in one
fresh simulating process (:mod:`simproc`) pinned to one vCPU.  Set-up is
timed from spawn to the process's READY line (imports plus every
workload build), three times; the third process then runs the measured
window.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import (
    HERE,
    HostSpeed,
    Outcome,
    Plan,
    Spans,
    Timed,
    available_cpus,
    child_env,
    end_to_end,
    median,
    percentile,
    put,
    sampling,
    scale_times,
    spawn,
    stop,
)

#: Headroom past the window for the checked set, the cycle-engine gate
#: and the traced replays.
_TAIL_S = 120.0


def run(workload: str, seed: int, plan: Plan, workdir: Path) -> Outcome:
    spec_path = workdir / "spec.json"
    report_path = workdir / "report.json"
    spec_path.write_text(json.dumps({
        "mode": "sweep",
        "workload": workload,
        "seed": seed,
        "seconds": plan.window_s,
        "trace": plan.trace,
        "checked_limit": plan.checked_limit,
        "report": str(report_path),
    }), encoding="utf-8")
    cpu = available_cpus()[0]
    spans = Spans()
    setup: List[List[float]] = []  # [start, end] wall times per cold start
    probes: List[Dict[str, Any]] = []
    proc = None
    with sampling(workdir, [cpu]) as speed_files:
        try:
            for attempt in range(plan.setup_starts):
                began_wall, began = time.time(), time.perf_counter()
                proc = spawn(
                    [sys.executable, str(HERE / "simproc.py"), str(spec_path)],
                    env=child_env(),
                    cpu=cpu,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("simulating process died during set-up")
                setup.append([began_wall, began_wall + time.perf_counter() - began])
                spans.add("setup", *setup[-1], request=f"start{attempt}")
                probes.append(json.loads(line))
                if attempt + 1 < plan.setup_starts:
                    proc.stdin.close()  # anything but "go" ends a set-up probe
                    proc.wait(30)
                    stop(proc)
            proc.stdin.write("go\n")
            proc.stdin.flush()
            proc.wait(plan.window_s + _TAIL_S)
            if proc.returncode != 0:
                raise RuntimeError(f"simulating process exited {proc.returncode}")
        except subprocess.TimeoutExpired:
            raise RuntimeError("simulating process overran its time budget") from None
        finally:
            if proc is not None:
                stop(proc)
    speed = HostSpeed.load(speed_files)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    done = [cell for cell in report["cells"] if "wall_s" in cell]
    window = spans.add(
        "sweep.window",
        report["window_start"],
        report["window_start"] + report["window_s"],
        request=workload,
    )
    per_cell: List[Timed] = []
    for cell in done:
        end = cell["start"] + cell["wall_s"]
        spans.add("api.simulate", cell["start"], end, request=cell["key"], parent=window)
        per_cell.append((cell["wall_s"], speed.slowdown([cpu], cell["start"], end)))

    metrics: Dict[str, Any] = {}
    # RSS attribution: imports, then workload builds, then the peak the
    # window's run-time memo caches add on top.
    rss_built = median([p["rss_after_build_mb"] for p in probes])
    put(metrics, "workloads.build_s", median([
        p["build_s"] / speed.slowdown([cpu], *span) for p, span in zip(probes, setup)
    ]), "s")
    put(metrics, "proc.rss_after_import_mb",
        median([p["rss_after_import_mb"] for p in probes]), "MB")
    put(metrics, "workloads.rss_after_build_mb", rss_built, "MB")
    put(metrics, "cells", len(done), "count")
    if plan.trace:
        metrics.update(scale_times(
            report["layers"], speed.slowdown([cpu], *report["layers_interval"])))
        walls = [raw / slow for raw, slow in per_cell]
        put(metrics, "exec.cell_p50_s", percentile(walls, 50), "s")
        put(metrics, "exec.cell_p90_s", percentile(walls, 90), "s")
        put(metrics, "proc.rss_setup_mb", rss_built, "MB")
        put(metrics, "sim.fingerprint_cycles", report["fingerprint"]["cycles"], "count")
        put(metrics, "sim.fingerprint_instructions",
            report["fingerprint"]["instructions"], "count")
    else:
        end_to_end(
            metrics,
            setup=[(end - start, speed.slowdown([cpu], start, end)) for start, end in setup],
            done=len(done),
            busy=per_cell,
            latencies=per_cell,
            instructions=sum(cell["instructions"] for cell in done),
            peak_rss_mb=report["peak_rss_mb"],
        )
    return Outcome(
        metrics=metrics,
        attempted=len(report["cells"]),
        failed=report["failed"],
        mismatches=report["mismatches"],
        digest=report["fingerprint"]["digest"],
        spans=spans,
    )
