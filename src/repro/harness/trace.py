"""The ``python -m repro.harness trace`` subcommand.

Runs one (configuration, workload) pair with the :mod:`repro.obs`
tracing subsystem enabled and writes:

- ``trace.jsonl`` — every event as JSON Lines;
- ``trace.chrome.json`` — Chrome trace-event JSON, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``, one
  process per core and one thread per hardware track;
- a text report on stdout — run summary, ring-buffer-derived
  histograms (TLB miss latency, page divergence, walk queue depth) and
  the head of the interval-metrics series.

Targets are either a figure id (``fig04`` traces that figure's
characteristic configuration) or a workload name (``bfs`` traces the
augmented design on that workload).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from repro.core import presets
from repro.core.config import GPUConfig, TraceConfig
from repro.engines import available_engines
from repro.core.simulator import Simulator
from repro.harness.experiment import DEFAULT_WARMUP
from repro.harness.figures import ALL_FIGURES
from repro.stats.histograms import Histogram
from repro.stats.report import format_series
from repro.workloads.base import TIMING_MISS_SCALE, Workload, WorkloadSpec
from repro.workloads.registry import get_workload, workload_names

_KW = dict(warmup_instructions=DEFAULT_WARMUP)

#: Characteristic configuration per figure id; figures not listed trace
#: the paper's recommended augmented design.
_FIG_PRESETS: Dict[str, Callable[[], GPUConfig]] = {
    "fig02": lambda: presets.naive_tlb(ports=3, **_KW),
    "fig03": lambda: presets.naive_tlb(ports=4, **_KW),
    "fig04": lambda: presets.naive_tlb(ports=4, **_KW),
    "fig06": lambda: presets.tlb_with_geometry(128, 4, ideal=True, **_KW),
    "fig07": lambda: presets.overlap_tlb(**_KW),
    "fig11": lambda: presets.multi_ptw_tlb(8, **_KW),
    "fig13": lambda: presets.with_ccws(presets.augmented_tlb(**_KW)),
    "fig16": lambda: presets.with_ta_ccws(presets.augmented_tlb(**_KW)),
    "fig17": lambda: presets.with_tcws(presets.augmented_tlb(**_KW)),
    "fig18": lambda: presets.with_tcws(presets.augmented_tlb(**_KW)),
    "sec9": lambda: presets.naive_tlb(ports=4, page_shift=21, **_KW),
}


def _tiny_workload() -> Workload:
    """A milliseconds-scale deterministic workload for smoke runs."""
    return Workload(
        WorkloadSpec(
            name="tiny",
            instructions_per_warp=20,
            compute_latency=3,
            private_pages=2,
            lines_per_page=4,
            hot_pool_pages=16,
            shared_fraction=0.4,
            cold_fraction=0.1,
            cold_pages=64,
            page_div_mean=2.0,
            page_div_max=4,
            seed=7,
        )
    )


def resolve_target(target: str, workload: Optional[str]) -> tuple:
    """Map a trace target to ``(config, workload, label)``.

    Figure ids pick that figure's characteristic preset; workload names
    pick the augmented design.  Raises KeyError for unknown targets.
    """
    if target in ALL_FIGURES:
        factory = _FIG_PRESETS.get(target, lambda: presets.augmented_tlb(**_KW))
        name = workload or "bfs"
        return factory(), get_workload(name), f"{target}/{name}"
    if target in workload_names():
        if workload is not None and workload != target:
            raise ValueError(
                f"target {target!r} is a workload; --workloads {workload!r} conflicts"
            )
        return presets.augmented_tlb(**_KW), get_workload(target), target
    raise KeyError(
        f"unknown trace target {target!r}: expected a figure id "
        f"({', '.join(ALL_FIGURES)}) or workload ({', '.join(workload_names())})"
    )


def run_trace(
    target: str,
    workload: Optional[str] = None,
    out_dir: str = ".",
    interval: int = 1000,
    ring_capacity: int = 1 << 18,
    tiny: bool = False,
    engine: Optional[str] = None,
) -> dict:
    """Run one traced simulation; return paths and the result."""
    config, wl, label = resolve_target(target, workload)
    if engine is not None:
        config = config.with_(engine=engine)
    if tiny:
        config = config.with_(
            num_cores=1, warps_per_core=8, warp_width=8, warmup_instructions=0
        )
        wl = _tiny_workload()
        label += " (tiny)"
    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, "trace.jsonl")
    chrome_path = os.path.join(out_dir, "trace.chrome.json")
    config = config.with_(
        trace=TraceConfig(
            enabled=True,
            ring_capacity=ring_capacity,
            jsonl_path=jsonl_path,
            chrome_path=chrome_path,
            interval_cycles=interval,
        )
    )
    work = wl.build(config, miss_scale=TIMING_MISS_SCALE)
    result = Simulator(config, work, wl.name).run()
    return {
        "label": label,
        "config": config,
        "result": result,
        "jsonl_path": jsonl_path,
        "chrome_path": chrome_path,
    }


def render_report(run: dict) -> str:
    """The text report the subcommand prints."""
    result = run["result"]
    stats = result.stats
    lines = [
        f"== trace: {run['label']} ==",
        f"config: {run['config'].describe()}",
        f"cycles: {result.cycles}  instructions: {stats.instructions}  "
        f"tlb miss rate: {100 * stats.tlb_miss_rate:.1f} %  "
        f"avg walk: {result.avg_walk_cycles:.1f} cyc",
        f"wrote {run['jsonl_path']}",
        f"wrote {run['chrome_path']} (open in https://ui.perfetto.dev)",
    ]
    for data in result.histograms.values():
        lines.append("")
        lines.append(Histogram.from_dict(data).render())
    if result.interval_series:
        head = result.interval_series[:10]
        series = {
            key: {str(row["cycle"]): row[key] for row in head}
            for key in ("instructions", "tlb_misses", "idle_cycles")
            if all(key in row for row in head)
        }
        lines.append("")
        lines.append(
            f"interval metrics (first {len(head)} of "
            f"{len(result.interval_series)} samples):"
        )
        lines.append(format_series(series, key_header="cycle"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Run one configuration with event tracing enabled.",
    )
    parser.add_argument(
        "target", help="figure id (e.g. fig04) or workload name (e.g. bfs)"
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="workload to trace when the target is a figure (default: bfs)",
    )
    parser.add_argument(
        "--out", default=".", help="output directory (default: current)"
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=1000,
        help="interval-sampler period in cycles, 0 to disable (default 1000)",
    )
    parser.add_argument(
        "--ring",
        type=int,
        default=1 << 18,
        help="ring buffer capacity for histogram derivation (default 262144)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke mode: 8-warp core and a tiny workload (CI uses this)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(available_engines()),
        help="simulator core (default: the config's own, normally "
        "'event'; both engines emit the identical trace stream — the "
        "event engine instruments its own scheduler natively)",
    )
    args = parser.parse_args(argv)
    workload = args.workloads.split(",")[0] if args.workloads else None
    try:
        run = run_trace(
            args.target,
            workload=workload,
            out_dir=args.out,
            interval=args.interval,
            ring_capacity=args.ring,
            tiny=args.tiny,
            engine=args.engine,
        )
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    print(render_report(run))
    return 0
