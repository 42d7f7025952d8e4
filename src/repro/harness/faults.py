"""The ``python -m repro.harness faults`` subcommand.

A fault-injection smoke run: executes one (configuration, workload)
pair with the :mod:`repro.faults` subsystem enabled — demand paging
and/or seeded injection — and prints the fault counters.  With
``--check-determinism`` the run executes twice and the command fails
unless both produce byte-identical serialized results, which is the
property every fault-injection experiment in this repo depends on
(same seed → same fault sites → same cycle counts).

CI runs ``python -m repro.harness faults --tiny --check-determinism``
as its robustness smoke test.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core import presets
from repro.core.simulator import Simulator
from repro.engines import available_engines
from repro.faults.config import FaultConfig
from repro.harness.experiment import DEFAULT_WARMUP
from repro.harness.trace import _tiny_workload
from repro.workloads.base import TIMING_MISS_SCALE, Workload
from repro.workloads.registry import get_workload, workload_names


def _resolve_workload(name: Optional[str], tiny: bool) -> Workload:
    if tiny:
        return _tiny_workload()
    target = name or "bfs"
    if target not in workload_names():
        raise KeyError(
            f"unknown workload {target!r}; choose from {workload_names()}"
        )
    return get_workload(target)


def run_faulty(
    workload: Optional[str] = None,
    tiny: bool = False,
    demand_paging: bool = True,
    minor_fraction: float = 0.3,
    ptw_error_rate: float = 0.01,
    shootdown_rate: float = 0.001,
    invalidate_rate: float = 0.01,
    seed: int = 1,
    watchdog_cycles: int = 2_000_000,
    engine: Optional[str] = None,
):
    """Run the augmented design with faults enabled; return the result."""
    wl = _resolve_workload(workload, tiny)
    config = presets.augmented_tlb(warmup_instructions=DEFAULT_WARMUP)
    if engine is not None:
        config = config.with_(engine=engine)
    if tiny:
        config = config.with_(
            num_cores=1, warps_per_core=8, warp_width=8, warmup_instructions=0
        )
    config = config.with_(
        faults=FaultConfig(
            enabled=True,
            demand_paging=demand_paging,
            minor_fraction=minor_fraction,
            ptw_error_rate=ptw_error_rate,
            tlb_shootdown_rate=shootdown_rate,
            tlb_invalidate_rate=invalidate_rate,
            seed=seed,
            watchdog_cycles=watchdog_cycles,
        )
    )
    work = wl.build(config, miss_scale=TIMING_MISS_SCALE)
    return Simulator(config, work, wl.name).run(), config


def render_report(result, config) -> str:
    """The text report the subcommand prints."""
    stats = result.stats
    return "\n".join(
        [
            f"== faults: {result.workload} ==",
            f"config: {config.describe()}",
            f"cycles: {result.cycles}  instructions: {stats.instructions}",
            f"page faults: {stats.page_faults} "
            f"({stats.page_faults_minor} minor, {stats.page_faults_major} major, "
            f"{stats.page_fault_stall_cycles} stall cycles)",
            f"ptw: {stats.ptw_transient_errors} transient errors, "
            f"{stats.ptw_retries} retries, {stats.ptw_walk_timeouts} timeouts",
            f"tlb: {stats.tlb_shootdowns} shootdowns, "
            f"{stats.tlb_injected_invalidations} injected invalidations",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness faults",
        description="Fault-injection smoke run (demand paging + injection).",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="workload name (default: bfs; ignored with --tiny)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke mode: 8-warp core and a tiny workload (CI uses this)",
    )
    parser.add_argument(
        "--no-paging",
        action="store_true",
        help="disable demand paging (injection only)",
    )
    parser.add_argument(
        "--ptw-error-rate", type=float, default=0.01,
        help="per-load transient walk error probability (default 0.01)",
    )
    parser.add_argument(
        "--shootdown-rate", type=float, default=0.001,
        help="per-access full-TLB shootdown probability (default 0.001)",
    )
    parser.add_argument(
        "--invalidate-rate", type=float, default=0.01,
        help="per-fill single-entry invalidation probability (default 0.01)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="fault seed (default 1)"
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(available_engines()),
        help="simulator core (default: the config's own, normally "
        "'event'; both engines produce byte-identical fault runs)",
    )
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run twice; fail unless both runs serialize identically",
    )
    args = parser.parse_args(argv)
    try:
        result, config = run_faulty(
            workload=args.workload,
            tiny=args.tiny,
            demand_paging=not args.no_paging,
            ptw_error_rate=args.ptw_error_rate,
            shootdown_rate=args.shootdown_rate,
            invalidate_rate=args.invalidate_rate,
            seed=args.seed,
            engine=args.engine,
        )
    except KeyError as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    print(render_report(result, config))
    if args.check_determinism:
        rerun, _ = run_faulty(
            workload=args.workload,
            tiny=args.tiny,
            demand_paging=not args.no_paging,
            ptw_error_rate=args.ptw_error_rate,
            shootdown_rate=args.shootdown_rate,
            invalidate_rate=args.invalidate_rate,
            seed=args.seed,
            engine=args.engine,
        )
        if rerun.to_json() != result.to_json():
            print("DETERMINISM VIOLATION: reruns differ", file=sys.stderr)
            return 1
        print("determinism: rerun byte-identical")
    return 0
