"""The ``python -m repro.harness explain`` subcommand.

Runs one (configuration, workload) pair with the :mod:`repro.obs.spans`
recorder installed and reports *where translation latency went*: the
additive critical-path decomposition of every TLB miss (probe, walker
queue, per-level walk, fault handling, memory fills, wakeup slack),
per-component histograms, and the top-N slowest translations with
their full span trees.

Outputs:

- a text report on stdout (``--json`` prints the report dict instead);
- with ``--out DIR`` (created if missing):
  ``explain.json`` — the full report,
  ``spans.chrome.json`` — the slowest trees as Chrome trace-event JSON
  with parent→child flow events (load in https://ui.perfetto.dev),
  ``spans.jsonl`` — the same trees as JSON Lines;
- the aggregate breakdown mirrored into the process-wide
  :class:`repro.prof.registry.MetricsRegistry` (``span_*`` families).

Targets follow ``harness trace``: a figure id (``fig02`` explains that
figure's characteristic configuration) or a workload name (``bfs``
explains the augmented design).  Unknown names exit 2.  The exit code
is 1 if any request's components failed to sum to its end-to-end
latency (never observed in a correct build; CI smoke-checks it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.core.simulator import Simulator
from repro.engines import available_engines
from repro.harness.trace import _tiny_workload, resolve_target
from repro.obs.critpath import CriticalPathReport
from repro.obs.spans import SpanRecorder, record_spans
from repro.prof.registry import REGISTRY
from repro.workloads.base import TIMING_MISS_SCALE


def run_explain(
    target: str,
    workload: Optional[str] = None,
    top: int = 10,
    quick: bool = False,
    engine: Optional[str] = None,
) -> dict:
    """Run one span-recorded simulation; return report and context."""
    config, wl, label = resolve_target(target, workload)
    if engine is not None:
        config = config.with_(engine=engine)
    kwargs = {}
    if quick:
        config = config.with_(
            num_cores=1, warps_per_core=8, warp_width=8, warmup_instructions=0
        )
        wl = _tiny_workload()
        label += " (quick)"
        kwargs["miss_scale"] = TIMING_MISS_SCALE
    work = wl.build(config, **kwargs)
    recorder = SpanRecorder(keep_slowest=top)
    with record_spans(recorder):
        result = Simulator(config, work, wl.name).run()
    report = CriticalPathReport(recorder, label=label)
    report.to_registry(REGISTRY, target=target, workload=wl.name)
    return {
        "label": label,
        "config": config,
        "workload": wl,
        "result": result,
        "recorder": recorder,
        "report": report,
    }


def _report_dict(run: dict) -> dict:
    """The ``explain.json`` payload: report plus run-level context."""
    result = run["result"]
    out = run["report"].to_dict()
    out["run"] = {
        "config": run["config"].describe(),
        "workload": run["workload"].name,
        "cycles": result.cycles,
        "tlb_misses": result.stats.tlb_misses,
        "instructions": result.stats.instructions,
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness explain",
        description="Attribute per-request translation latency to "
        "critical-path components.",
    )
    parser.add_argument(
        "target", help="figure id (e.g. fig02) or workload name (e.g. bfs)"
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="workload to explain when the target is a figure (default: bfs)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write explain.json, spans.chrome.json and spans.jsonl "
        "here (directory is created if missing)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="slowest translations to retain with full span trees "
        "(default 10)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of the text table",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: 8-warp core and a tiny workload (CI uses this)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(available_engines()),
        help="simulator core (default: the config's own, normally "
        "'event'; both engines record identical request spans — the "
        "event engine instruments its own scheduler natively)",
    )
    args = parser.parse_args(argv)
    workload = args.workloads.split(",")[0] if args.workloads else None
    try:
        run = run_explain(
            args.target,
            workload=workload,
            top=args.top,
            quick=args.quick,
            engine=args.engine,
        )
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    report: CriticalPathReport = run["report"]
    payload = _report_dict(run)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        json_path = os.path.join(args.out, "explain.json")
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        chrome_path = os.path.join(args.out, "spans.chrome.json")
        report.write_chrome_trace(chrome_path)
        jsonl_path = os.path.join(args.out, "spans.jsonl")
        report.write_jsonl(jsonl_path)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render_text(top=args.top))
        if args.out:
            print()
            print(f"wrote {os.path.join(args.out, 'explain.json')}")
            print(
                f"wrote {os.path.join(args.out, 'spans.chrome.json')} "
                "(open in https://ui.perfetto.dev)"
            )
            print(f"wrote {os.path.join(args.out, 'spans.jsonl')}")
    if report.mismatches:
        print(
            f"error: {report.mismatches} request(s) failed the additive "
            "decomposition check",
            file=sys.stderr,
        )
        return 1
    return 0
