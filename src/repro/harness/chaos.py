"""``python -m repro.harness chaos`` — the recovery-proof campaign.

A seeded chaos campaign that attacks the sweep machinery the way real
infrastructure does — SIGKILLed workers, files truncated mid-write,
faults injected mid-sweep — and verifies the recovery guarantees hold:

1. **kill/restart** — a supervised sweep whose chaos hook SIGKILLs a
   worker holding a cell on each supervision tick until the campaign's
   kills have landed (one for ``--quick``, two for the full matrix), so
   cells are killed mid-run and re-run from the start on another worker;
   every kill must land, every killed cell must have been re-run once
   per kill, and the recovered results must be byte-identical to a
   clean serial run, with no degradation warnings.
2. **torn cache entry** — a sweep resumed from a result cache in which
   one entry was truncated mid-byte and another overwritten with ``{}``
   must re-simulate exactly those cells and the never-run ones (never
   raise), rewrite both entries, and match the clean run byte for
   byte.
3. **mid-sweep faults** — a poisoned cell (every page walk fails) must
   fail with its structured :class:`~repro.faults.errors.PTWError`
   while every healthy cell completes byte-identically.

``--server`` runs the companion campaign against the ``repro.serve``
daemon instead (see :mod:`repro.harness.chaos_server`): SIGKILL the
daemon mid-sweep, tear the job journal's final line, expire a lease
under a wedged executor, and flood admission past its high-water mark
— asserting byte-identical recovery, exactly-one-terminal-state per
job, and correct ``429``/``503`` shedding.  ``--distributed`` runs the
third campaign, against the coordinator/worker sharding protocol (see
:mod:`repro.harness.chaos_dist`): SIGKILL a worker holding a lease,
partition a lease holder (one-way and total), replay a completion
push, and tear a result body mid-flight — asserting byte-identical
reassembly, exactly-once terminal states per cell, and that every
stale or corrupt push bounces off the fencing/digest gates.
``--workloads`` narrows the campaign to a workload subset (unknown
names exit ``2``).  The three campaigns share this module's plumbing:
:class:`Campaign` (progress lines, failures, exit code), the tiny
machines, the serial :func:`oracle`, the exactly-once check
:func:`terminal_once`, and the :class:`Proc`/:class:`Daemon`
subprocess handles.

Exit codes: ``0`` — every check passed; ``1`` — a verification failed
(result mismatch, fewer kills landed than wanted, unexpected warnings);
``2`` — usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.config import GPUConfig
from repro.engines import available_engines
from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError, SimulationError
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell, execute_cell
from repro.parallel.pool import SweepExecutor
from repro.serve.client import ServeClient, ServeHTTPError

#: Restarts per cell during the kill campaign — generous, so seeded
#: extra kills cannot exhaust a budget and mask the identity check.
RESTART_BUDGET = 5

#: Wall-clock budget for a subprocess daemon to bind and become ready.
STARTUP_TIMEOUT = 30.0


# -- shared plumbing (the sweep, server and distributed campaigns) -----


class Campaign:
    """One campaign's progress lines, failure list, and exit code."""

    def __init__(self, prefix: str, verbose: bool = False):
        self.prefix = prefix
        self.verbose = verbose
        self.failures: List[str] = []

    def step(self, name: str, detail: str = "") -> None:
        suffix = f" — {detail}" if detail else ""
        print(f"{self.prefix}: {name}{suffix}")
        if self.verbose:
            sys.stdout.flush()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def exit_code(self, summary: str) -> int:
        """Report the verdict: 0 if every check passed, else 1."""
        if self.failures:
            print()
            for failure in self.failures:
                print(f"{self.prefix} FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"{self.prefix}: all checks passed ({summary})")
        return 0


def tiny(preset: str, **overrides) -> GPUConfig:
    """``preset`` on one core of 8 warps × 8 lanes (cells run in ~0.1 s)."""
    return GPUConfig.preset(
        preset, num_cores=1, warps_per_core=8, warp_width=8, **overrides
    )


def on_engine(cell: Cell, engine: Optional[str]) -> Cell:
    """The cell running on ``engine`` (None keeps the config's own)."""
    if engine is None or cell.config.engine == engine:
        return cell
    return replace(cell, config=cell.config.with_(engine=engine))


def oracle(cells: Sequence[Cell]) -> List[str]:
    """The serial ground truth every recovery is compared against."""
    return [execute_cell(cell).canonical_json() for cell in cells]


def terminal_once(
    counts: Dict[str, int], keys: Iterable[str]
) -> Optional[str]:
    """None if every key is terminal exactly once, else a complaint.

    ``counts`` is a journal's ``terminal_counts`` (job or cell).
    """
    bad = {
        key: counts.get(key, 0) for key in keys if counts.get(key, 0) != 1
    }
    if bad:
        return f"terminal counts off (want exactly 1 each): {bad}"
    return None


class Proc:
    """A ``python -m <module>`` subprocess, SIGKILL-able."""

    def __init__(self, *module_args: str):
        self.process = subprocess.Popen(
            [sys.executable, "-m", *module_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def kill(self) -> None:
        """SIGKILL — no drain, no cleanup; the crash being tested."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def terminate(self) -> int:
        """SIGTERM — the graceful drain path; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()
        return code


class Daemon(Proc):
    """A ``python -m repro.serve`` subprocess on an ephemeral port."""

    def __init__(self, tmp: str, tag: str, *serve_args: str):
        port_file = os.path.join(tmp, f"port-{tag}")
        super().__init__(
            "repro.serve", "--port", "0", "--port-file", port_file,
            *serve_args,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while not os.path.exists(port_file):
            if self.process.poll() is not None:
                out = (self.process.stdout.read() or b"").decode(
                    "utf-8", errors="replace"
                )
                raise RuntimeError(
                    f"serve daemon died during startup "
                    f"(exit {self.process.returncode}): {out}"
                )
            if time.monotonic() > deadline:
                self.process.kill()
                raise RuntimeError("serve daemon never wrote its port file")
            time.sleep(0.02)
        with open(port_file, "r", encoding="utf-8") as handle:
            self.base_url = f"http://{handle.read().strip()}"
        self.client = ServeClient(self.base_url)
        # Readiness gate: replay finished, dispatcher running.
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                self.client.readyz()
                break
            except (ServeHTTPError, OSError):
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("serve daemon never became ready")
                time.sleep(0.05)

    def metrics_value(self, name: str) -> float:
        """Sum of ``name``'s series scraped from the daemon's /metrics."""
        total = 0.0
        for line in self.client.metrics_text().splitlines():
            match = re.match(
                rf"^{re.escape(name)}(?:\{{[^}}]*\}})?\s+([0-9.eE+-]+)$",
                line,
            )
            if match:
                total += float(match.group(1))
        return total


# -- the sweep campaign ------------------------------------------------


def _matrix(quick: bool, workloads: Optional[List[str]] = None) -> List[Cell]:
    def pick(index: int, default: str) -> str:
        if workloads is None:
            return default
        return workloads[index % len(workloads)]

    cells = [
        Cell(label="naive", workload=pick(0, "bfs"), config=tiny("naive"), miss_scale=1.0),
        Cell(label="aug", workload=pick(1, "kmeans"), config=tiny("augmented"), miss_scale=1.0),
        Cell(label="base", workload=pick(2, "bfs"), config=tiny("no_tlb"), miss_scale=1.0),
    ]
    if not quick:
        cells += [
            Cell(label="aug", workload=pick(3, "bfs"), config=tiny("augmented"), miss_scale=1.0),
            Cell(label="naive", workload=pick(4, "kmeans"), config=tiny("naive"), miss_scale=1.0),
            Cell(
                label="ideal",
                workload=pick(5, "memcached"),
                config=tiny("ideal"),
                miss_scale=1.0,
            ),
        ]
    return cells


def _poisoned_cell() -> Cell:
    return Cell(
        label="poisoned",
        workload="bfs",
        config=tiny(
            "augmented",
            faults=FaultConfig(
                enabled=True, ptw_error_rate=1.0, ptw_max_retries=1, seed=3
            ),
        ),
        miss_scale=1.0,
    )


class _Killer:
    """The seeded chaos hook: SIGKILLs live workers mid-cell.

    Until ``max_kills`` have landed, every supervision tick kills one
    worker holding a cell after its first heartbeat; when several do,
    the seeded RNG picks which.  So the kills land on the first eligible
    ticks, whatever the host's speed.  A worker already killed (the pool
    may not have reaped it yet), one with an unread message (perhaps its
    outcome), and one whose cell is close to its restart budget are
    spared — the campaign proves recovery, exhaustion has its own test.
    """

    def __init__(self, seed: int, max_kills: int):
        self.rng = random.Random(seed)
        self.max_kills = max_kills
        self.kills = 0
        self.killed: Set[int] = set()
        #: Cell index → (the killed cell's task, kills it took).
        self.victims: Dict[int, tuple] = {}

    def __call__(self, pool) -> None:
        if self.kills >= self.max_kills:
            return
        eligible = [
            worker
            for worker in pool.workers
            if worker.task is not None
            and worker.beaten
            and worker.process.pid not in self.killed
            and worker.task.spawns <= RESTART_BUDGET - 1
            and not worker.conn.poll()
        ]
        if not eligible:
            return
        worker = self.rng.choice(eligible)
        task, pid = worker.task, worker.process.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        self.killed.add(pid)
        self.kills += 1
        taken = self.victims.get(task.index, (task, 0))[1]
        self.victims[task.index] = (task, taken + 1)

    def unrestarted(self) -> List[str]:
        """Killed cells not re-run once per kill."""
        return [
            f"{task.cell.describe()} (killed {kills}x, spawned "
            f"{task.spawns}x)"
            for task, kills in self.victims.values()
            if task.spawns != kills + 1
        ]


def _canonical(results) -> List[str]:
    return [result.canonical_json() for result in results]


class _RecordingCache(ResultCache):
    """A result cache that records the key of every store."""

    def __init__(self, root: str):
        super().__init__(root)
        self.stored: List[str] = []

    def put(self, key, result) -> None:
        self.stored.append(key)
        super().put(key, result)


def run_campaign(
    *,
    seed: int = 0,
    quick: bool = False,
    jobs: int = 2,
    workloads: Optional[List[str]] = None,
    verbose: bool = False,
    engine: Optional[str] = None,
) -> int:
    """Execute the full campaign; returns the process exit code."""
    campaign = Campaign("chaos", verbose)
    matrix = [on_engine(cell, engine) for cell in _matrix(quick, workloads)]
    kills_wanted = 1 if quick else 2

    campaign.step("baseline", f"{len(matrix)} cells, serial")
    started = time.monotonic()
    baseline = oracle(matrix)
    campaign.step("baseline done", f"{time.monotonic() - started:.1f}s")

    # -- 1. kill/restart ----------------------------------------------
    killer = _Killer(seed, max_kills=kills_wanted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        executor = SweepExecutor(
            jobs=jobs, chaos=killer, restart_budget=RESTART_BUDGET
        )
        recovered = _canonical(executor.run(matrix))
    if killer.kills < kills_wanted:
        campaign.fail(
            f"kill/restart: {killer.kills} of {kills_wanted} wanted "
            "kill(s) landed — the campaign under-exercised the restart "
            "path"
        )
    unrestarted = killer.unrestarted()
    if unrestarted:
        campaign.fail(
            "kill/restart: killed cells not re-run once per kill: "
            + "; ".join(unrestarted)
        )
    if recovered != baseline:
        campaign.fail(
            "kill/restart: recovered results differ from the clean "
            "serial run"
        )
    if caught:
        rendered = "; ".join(str(w.message) for w in caught)
        campaign.fail(
            f"kill/restart: sweep degraded with warnings ({rendered})"
        )
    campaign.step(
        "kill/restart",
        f"{killer.kills} worker(s) SIGKILLed, results "
        + ("identical" if recovered == baseline else "MISMATCH"),
    )

    # -- 2. torn cache entry -----------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        part = matrix[:3]
        SweepExecutor(jobs=1, cache=ResultCache(tmp)).run(part)
        cache = _RecordingCache(tmp)
        torn, emptied = cache_key(part[0]), cache_key(part[1])
        with open(cache.path(torn), "r+b") as handle:
            handle.truncate(os.path.getsize(cache.path(torn)) // 2)
        with open(cache.path(emptied), "w", encoding="utf-8") as handle:
            handle.write("{}")
        resumed = _canonical(SweepExecutor(jobs=1, cache=cache).run(matrix))
        keys = [cache_key(cell) for cell in matrix]
        want = {torn, emptied} | (set(keys) - {cache_key(c) for c in part})
        if sorted(cache.stored) != sorted(want):
            campaign.fail(
                f"torn cache entry: re-simulated {len(cache.stored)} "
                f"cell(s), wanted exactly the {len(want)} torn or never run"
            )
        clean = dict(zip(keys, baseline))
        for key in (torn, emptied):
            with open(cache.path(key), "r", encoding="utf-8") as handle:
                if handle.read() != clean[key]:
                    campaign.fail(
                        "torn cache entry: a damaged entry was not "
                        "rewritten with the clean result"
                    )
        if resumed != baseline:
            campaign.fail(
                "torn cache entry: resumed results differ from baseline"
            )
        campaign.step(
            "torn cache entry",
            f"re-simulated {len(cache.stored)}/{len(want)}, "
            + ("identical" if resumed == baseline else "MISMATCH"),
        )

    # -- 3. mid-sweep faults ------------------------------------------
    poisoned = on_engine(_poisoned_cell(), engine)
    chaos_matrix = matrix[:2] + [poisoned] + matrix[2:]
    poisoned_index = 2
    error: Optional[SimulationError] = None
    try:
        SweepExecutor(jobs=jobs, restart_budget=RESTART_BUDGET).run(
            chaos_matrix
        )
        campaign.fail(
            "mid-sweep faults: the poisoned cell did not raise"
        )
    except PTWError as exc:
        error = exc
    except SimulationError as exc:
        campaign.fail(
            f"mid-sweep faults: expected PTWError, got "
            f"{type(exc).__name__}: {exc}"
        )
    if error is not None and error.diagnostics.get("series") != "poisoned":
        campaign.fail(
            "mid-sweep faults: the structured error does not name the "
            "poisoned series"
        )
    campaign.step(
        "mid-sweep faults",
        f"poisoned cell #{poisoned_index} raised "
        f"{type(error).__name__ if error else 'nothing'}",
    )

    return campaign.exit_code(
        f"seed {seed}, {killer.kills} kill(s), {len(matrix)} cells"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness chaos",
        description="Seeded chaos campaign proving sweep recovery.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="chaos RNG seed (default 0)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small matrix and one guaranteed kill (CI smoke mode)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="supervised worker slots (default 2)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload subset the campaign cells cycle "
        "through (default: the built-in mix)",
    )
    parser.add_argument(
        "--server",
        action="store_true",
        help="attack the repro.serve daemon instead of the sweep pool "
        "(SIGKILL mid-sweep, torn journal, expired leases, admission "
        "floods)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="attack the repro.dist coordinator/worker protocol instead "
        "(SIGKILL a worker holding a lease, partition a lease holder, "
        "replay completion pushes, tear result bodies)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(available_engines()),
        help="simulator core for every campaign cell (default: each "
        "config's own, normally 'event')",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="flush per-step progress"
    )
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",") if args.workloads else None
    if workloads:
        from repro.workloads.registry import workload_names

        known = set(workload_names())
        bad = [w for w in workloads if w not in known]
        if bad:
            print(
                f"unknown workload(s) {bad}; choose from {sorted(known)}",
                file=sys.stderr,
            )
            return 2
    if args.server and args.distributed:
        print("pick one of --server / --distributed", file=sys.stderr)
        return 2
    if args.distributed:
        from repro.harness.chaos_dist import run_dist_campaign

        return run_dist_campaign(
            seed=args.seed,
            quick=args.quick,
            workloads=workloads,
            verbose=args.verbose,
            engine=args.engine,
        )
    if args.server:
        from repro.harness.chaos_server import run_server_campaign

        return run_server_campaign(
            seed=args.seed,
            quick=args.quick,
            workloads=workloads,
            verbose=args.verbose,
            engine=args.engine,
        )
    if args.jobs < 2:
        print("chaos needs --jobs >= 2 (supervision only runs in the "
              "parallel path)", file=sys.stderr)
        return 2
    return run_campaign(
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        workloads=workloads,
        verbose=args.verbose,
        engine=args.engine,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
