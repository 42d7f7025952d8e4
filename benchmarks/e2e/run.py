"""End-to-end benchmark of the GPU MMU reproduction.

Examples::

    python3 benchmarks/e2e/run.py --workload mmu-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace --out DIR    # every workload, traced
    python3 benchmarks/e2e/run.py --repeat 5 --out DIR          # calibration summary

Each workload runs its program processes fresh, with its own scratch
directories under ``--out``.  The run prints every metric as
``name value unit``, writes ``DIR/result.json`` (and ``DIR/spans.jsonl``
when traced), and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and the declared metrics of ``BENCHMARK.json``:
its ``end_to_end`` list untraced, its ``per_layer`` list traced.  Exit
status 1 means an output check failed; 2 means bad arguments or a
checkout without the program's sources.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import ROOT, SRC, Outcome, Plan, Spans

WORKLOADS = ("mmu-sweep", "sched-sweep", "serve-open-loop", "dist-sweep")
SMOKE_SECONDS = 2.0
DEFAULT_OUT = ROOT / ".e2e-bench"


def _runner(name: str) -> Callable[[int, Plan, Path], Outcome]:
    # Imported here: these modules import the program, which the caller
    # has just put on the path.
    import dist_load
    import serve_load
    import sweeps

    if name == "serve-open-loop":
        return serve_load.run
    if name == "dist-sweep":
        return dist_load.run
    return lambda seed, plan, workdir: sweeps.run(name, seed, plan, workdir)


def declared(spec: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """Metric name → unit that ``BENCHMARK.json`` declares for the mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workloads(
    names: List[str], seed: int, plan: Plan, out: Path, want: Dict[str, str]
) -> Tuple[Dict[str, Outcome], Spans]:
    """Run each workload in its own scratch directory; check that every
    declared metric was measured in its declared unit."""
    outcomes: Dict[str, Outcome] = {}
    spans = Spans()
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
        try:
            outcome = _runner(name)(seed, plan, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        got = {metric: outcome.metrics[metric]["unit"]
               for metric in want if metric in outcome.metrics}
        if got != want:
            raise RuntimeError(
                f"{name} measured {sorted(got.items())}, but BENCHMARK.json "
                f"declares {sorted(want.items())}"
            )
        spans.extend(outcome.spans, name)
        outcomes[name] = outcome
    return outcomes, spans


def summary_line(outcomes: Dict[str, Outcome], metrics: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    })


def report(
    outcomes: Dict[str, Outcome],
    spans: Spans,
    seed: int,
    plan: Plan,
    out: Path,
    want: Dict[str, str],
) -> None:
    for name, outcome in outcomes.items():
        for metric, value in outcome.metrics.items():
            print(f"{name}/{metric} {value['value']!r} {value['unit']}")
        print(f"{name}/digest {outcome.digest}")
        for mismatch in outcome.mismatches:
            print(f"{name}: MISMATCH {mismatch}", file=sys.stderr)
    (out / "result.json").write_text(json.dumps({
        "seed": seed,
        "seconds": plan.seconds,
        "trace": plan.trace,
        "workloads": {
            name: {
                "correct": o.correct,
                "attempted": o.attempted,
                "failed": o.failed,
                "digest": o.digest,
                "mismatches": o.mismatches,
                "metrics": {m: v for m, v in o.metrics.items() if m in want},
                "extras": {m: v for m, v in o.metrics.items() if m not in want},
            }
            for name, o in outcomes.items()
        },
    }, indent=2, sort_keys=True), encoding="utf-8")
    if plan.trace:
        spans.write(out / "spans.jsonl")
    single = len(outcomes) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): outcome.metrics[metric]
        for name, outcome in outcomes.items()
        for metric in want
    }
    print(summary_line(outcomes, metrics))


def calibrate(
    names: List[str], seed: int, repeat: int, plan: Plan, out: Path, want: Dict[str, str]
) -> bool:
    """Run every workload ``repeat`` times (seeds ``seed``, ``seed+1``,
    ...) and write every metric's median, quartiles, extremes and spread
    (interquartile range over median) to ``DIR/calibration.json``."""
    values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    units: Dict[str, str] = {}
    everything: Dict[str, Outcome] = {}
    for index in range(repeat):
        outcomes, _spans = run_workloads(names, seed + index, plan, out, want)
        for name, outcome in outcomes.items():
            everything[f"{name}#{index}"] = outcome
            for metric, value in outcome.metrics.items():
                values[name].setdefault(metric, []).append(value["value"])
                units[metric] = value["unit"]
    summary: Dict[str, Dict[str, Any]] = {}
    medians: Dict[str, Any] = {}
    for name, per_metric in values.items():
        summary[name] = {}
        for metric, samples in per_metric.items():
            q1, mid, q3 = statistics.quantiles(samples, n=4)
            entry = {
                "unit": units[metric],
                "median": mid,
                "q1": q1,
                "q3": q3,
                "min": min(samples),
                "max": max(samples),
                "spread": (q3 - q1) / mid if mid else 0.0,
            }
            summary[name][metric] = entry
            print(f"{name}/{metric} median {mid!r} {entry['unit']} "
                  f"spread {entry['spread']:.4f}")
            if metric in want:
                medians[f"{name}/{metric}"] = {"value": mid, "unit": entry["unit"]}
    (out / "calibration.json").write_text(json.dumps({
        "repeat": repeat,
        "first_seed": seed,
        "seconds": plan.seconds,
        "trace": plan.trace,
        "workloads": summary,
    }, indent=2, sort_keys=True), encoding="utf-8")
    print(summary_line(everything, medians))
    return all(o.correct for o in everything.values())


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[], metavar="NAME",
                        help=f"workload to run (repeatable): {', '.join(WORKLOADS)}")
    parser.add_argument("--workloads", default=None, metavar="A,B",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 keeps the calibrated workload specs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="1 (or bare --trace): per-layer metrics and spans.jsonl")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help=f"output directory (default: {DEFAULT_OUT.name} "
                        "in the checkout)")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="calibration: N runs on seeds SEED..SEED+N-1, "
                        "summarised in DIR/calibration.json")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny sizes for tests ({SMOKE_SECONDS:g} s windows, "
                        "one cold start)")
    return parser.parse_args(argv)


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not bench_file.is_file():
        print(f"error: {ROOT} is not a checkout of the program "
              "(src/repro and BENCHMARK.json are required)", file=sys.stderr)
        return 2
    names = list(args.workload)
    if args.workloads:
        names += args.workloads.split(",")
    names = names or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.repeat is not None and args.repeat < 2:
        print("error: --repeat needs at least 2 runs", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    plan = Plan(seconds=seconds, trace=args.trace == "1", smoke=args.smoke)
    out = Path(args.out) if args.out else DEFAULT_OUT
    out.mkdir(parents=True, exist_ok=True)
    want = declared(spec, plan.trace)
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like Ctrl-C, so every started process is stopped.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.repeat is not None:
            return 0 if calibrate(names, args.seed, args.repeat, plan, out, want) else 1
        outcomes, spans = run_workloads(names, args.seed, plan, out, want)
    except KeyboardInterrupt:
        print("interrupted; every started process has been stopped", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    report(outcomes, spans, args.seed, plan, out, want)
    return 0 if all(o.correct for o in outcomes.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
