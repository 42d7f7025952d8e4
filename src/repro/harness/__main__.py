"""Command-line entry point: regenerate paper figures, trace a run.

Usage::

    python -m repro.harness list
    python -m repro.harness fig10
    python -m repro.harness fig13 --workloads bfs,kmeans
    python -m repro.harness fig07 --jobs 4
    python -m repro.harness fig10 --engine cycle
    python -m repro.harness all --cache ~/.cache/repro-sweeps --retries 2 \
        --jobs 8
    python -m repro.harness fig07 --json > fig07.json
    python -m repro.harness trace fig04 --out traces/
    python -m repro.harness trace bfs --tiny
    python -m repro.harness explain fig02 --quick
    python -m repro.harness explain bfs --out explain/ --json
    python -m repro.harness faults --tiny --check-determinism
    python -m repro.harness bench --quick
    python -m repro.harness bench --full --strict
    python -m repro.harness chaos --quick --seed 7
    python -m repro.harness chaos --server --quick
    python -m repro.harness serve --journal serve.jsonl --cache ~/.cache/repro
    python -m repro.harness worker --coordinator http://127.0.0.1:8750
    python -m repro.harness top --url http://127.0.0.1:8750
    python -m repro.harness top --file metrics.prom --once --plain

Each figure id maps to a driver in :mod:`repro.harness.figures`; every
figure of one invocation (all fourteen for ``all``) runs inside one
:func:`repro.harness.experiment.sweep_session`, so a design point that
several figures share simulates once.  The rendered table prints to
stdout (``--json`` prints the figure's canonical JSON instead).

``--jobs N`` fans the sweep's (config, workload) cells out to N worker
processes (default: one per CPU core); the series are byte-identical to
a serial run.  ``--cache DIR`` enables the content-addressed result
cache, so reruns skip already-simulated cells; it also makes a sweep
resumable, since each cell is stored the moment it finishes and a
rerun of a killed sweep simulates only the cells that never did.
``--retries`` retries cells that die with a structured simulator error
(hang, permanent walk failure) before failing the sweep, and
``--timeout`` bounds each cell's wall-clock seconds.  Unknown figure or
workload names exit with status 2 and a message naming the valid
choices.

``trace`` runs one configuration with the :mod:`repro.obs` event tracer
enabled and writes ``trace.jsonl`` and ``trace.chrome.json`` (see
:mod:`repro.harness.trace`); ``explain`` runs one configuration with
causal span recording on and prints the critical-path latency
attribution — where each missed translation's cycles went (see
:mod:`repro.harness.explain`); ``faults`` is the fault-injection smoke
run (see :mod:`repro.harness.faults`); ``bench`` profiles a calibrated
figure matrix and records a ``BENCH_<n>.json`` perf-trajectory report
(see :mod:`repro.harness.bench`); ``chaos`` is the seeded recovery
campaign — SIGKILLed workers, torn cache entries, injected faults —
proving recovered sweeps byte-identical to clean serial runs
(see :mod:`repro.harness.chaos`; ``chaos --server`` attacks the serve
daemon instead — SIGKILL mid-job, torn journal, expired leases,
admission floods, and ``chaos --distributed`` attacks the
coordinator/worker sharding protocol — SIGKILLed workers mid-cell, a
SIGKILLed coordinator, partitions while holding a lease, duplicated
completion pushes, torn result bodies); ``serve`` runs the crash-safe
simulation server (see :mod:`repro.serve`); ``worker`` pulls and
executes sweep cells
from a coordinator (see :mod:`repro.dist.worker`); ``top`` is the live
terminal ops view over a
serve daemon's ``/metrics`` endpoint or a Prometheus textfile scrape
(see :mod:`repro.harness.top`).
"""

from __future__ import annotations

import argparse
import sys

from repro.engines import available_engines
from repro.harness.experiment import sweep_session
from repro.harness.figures import ALL_FIGURES
from repro.parallel.pool import default_jobs
from repro.workloads.registry import workload_names


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    from repro.obs import log as _log

    _log.configure_from_env()
    if argv and argv[0] == "trace":
        from repro.harness.trace import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "explain":
        from repro.harness.explain import main as explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "faults":
        from repro.harness.faults import main as faults_main

        return faults_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.harness.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.harness.chaos import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.app import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "worker":
        from repro.dist.worker import main as worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "top":
        from repro.harness.top import main as top_main

        return top_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        help="figure id (e.g. fig10), 'all', or 'list'",
    )
    parser.add_argument(
        "--workloads",
        help="comma-separated workload subset (default: all six)",
        default=None,
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep cells (default: CPU count; "
        "1 = serial; results are byte-identical either way)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed result-cache directory; identical "
        "(config, workload) cells are simulated once across reruns, "
        "and a killed sweep rerun with it resumes",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="bound the result cache's size; stores past the bound "
        "evict least-recently-used entries",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per sweep cell after a simulator error "
        "(default 0)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per sweep cell attempt (default: none)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(available_engines()),
        help="simulator core for every cell (default: each config's "
        "own, normally 'event'; 'cycle' is the reference oracle — "
        "both produce byte-identical figures)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print each figure as canonical JSON instead of a table",
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        for key, fn in ALL_FIGURES.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{key:8s} {summary}")
        return 0

    workloads = args.workloads.split(",") if args.workloads else None
    if workloads:
        known = set(workload_names())
        bad = [w for w in workloads if w not in known]
        if bad:
            print(
                f"unknown workload(s) {bad}; choose from "
                f"{sorted(known)}",
                file=sys.stderr,
            )
            return 2
    targets = list(ALL_FIGURES) if args.figure == "all" else [args.figure]
    unknown = [t for t in targets if t not in ALL_FIGURES]
    if unknown:
        print(
            f"unknown figure(s) {unknown}; try 'list'", file=sys.stderr
        )
        return 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    with sweep_session(
        cell_retries=args.retries,
        jobs=jobs,
        cache_dir=args.cache,
        cell_timeout=args.timeout,
        progress_stream=sys.stderr if jobs > 1 else None,
        cache_max_mb=args.cache_max_mb,
        engine=args.engine,
    ):
        for target in targets:
            result = ALL_FIGURES[target](workloads=workloads)
            if args.json:
                print(result.to_json(indent=2))
            else:
                print(result.render())
                print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
