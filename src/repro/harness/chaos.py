"""``python -m repro.harness chaos`` — the recovery-proof campaigns.

A seeded chaos campaign attacks the machinery the way real
infrastructure does — SIGKILLed workers, daemons and coordinators,
files truncated mid-write, faults injected mid-sweep — and verifies
the recovery guarantees hold.  Each campaign is an ordered table of
*inject → recover → assert* scenarios, run by one :class:`Campaign`
that owns the serial oracle, the step lines, the failure list and the
exit code.  The sweep campaign's table (this module):

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

``--server`` runs the table of :mod:`repro.harness.chaos_server`
against the ``repro.serve`` daemon (SIGKILL it mid-job, tear its
journal, expire a lease under a wedged executor, flood admission), and
``--distributed`` the table of :mod:`repro.harness.chaos_dist` against
the coordinator/worker sharding protocol (SIGKILL a worker or the
coordinator mid-lease, partition a lease holder, replay and tear
completion pushes).  ``--workloads`` narrows a campaign to a workload
subset (unknown names exit ``2``).  The scenarios share this module's
fixtures: :func:`wait_for`, the :class:`Proc`/:class:`Daemon`
subprocess handles, the tiny machines, and :meth:`Campaign.verdict`,
the one recovery verdict (byte-identical to the oracle, every key
terminal exactly once in its journal).

Exit codes: ``0`` — every check passed; ``1`` — a verification failed
(result mismatch, fewer kills landed than wanted, unexpected warnings,
a scenario that timed out or crashed); ``2`` — usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.config import GPUConfig
from repro.engines import available_engines
from repro.faults.config import FaultConfig
from repro.faults.errors import PTWError
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell, execute_cell
from repro.parallel.pool import SweepExecutor
from repro.prof.export import parse_prometheus
from repro.serve.client import ServeClient, ServeHTTPError

#: Restarts per cell during the kill campaign — generous, so seeded
#: extra kills cannot exhaust a budget and mask the identity check.
RESTART_BUDGET = 5

#: Wall-clock budget for a subprocess daemon to bind and become ready.
STARTUP_TIMEOUT = 30.0

#: A scenario: injects a fault, lets the system recover, records every
#: broken assertion with :meth:`Campaign.check`, and returns the detail
#: of its step line.
Scenario = Callable[["Campaign"], str]


# -- the runner and the shared fixtures ---------------------------------


class Campaign:
    """One campaign: its serial oracle, step lines, failures, exit code.

    :meth:`run` computes the oracle, then runs a table of scenarios in
    order, each under its name; a scenario that raises (a
    :func:`wait_for` that timed out, a crash) fails with the exception
    and the table goes on.
    """

    def __init__(
        self,
        prefix: str,
        *,
        seed: int = 0,
        quick: bool = False,
        jobs: int = 2,
        workloads: Optional[List[str]] = None,
        engine: Optional[str] = None,
        verbose: bool = False,
    ):
        self.prefix = prefix
        self.seed = seed
        self.quick = quick
        self.jobs = jobs
        self.workloads = workloads
        self.engine = engine
        self.verbose = verbose
        self.failures: List[str] = []
        #: The running scenario's name (prefixes its failures).
        self.scenario = ""
        #: The campaign's cells and their serial results (the oracle).
        self.cells: List[Cell] = []
        self.expected: List[Any] = []
        #: Scratch directory the scenarios of one :meth:`play` share.
        self.tmp = ""
        #: Workers the kill/restart scenario SIGKILLed (summary line).
        self.kills = 0

    def step(self, name: str, detail: str = "") -> None:
        suffix = f" — {detail}" if detail else ""
        print(f"{self.prefix}: {name}{suffix}")
        if self.verbose:
            sys.stdout.flush()

    def check(self, ok: Any, message: str) -> bool:
        """Record ``message`` as a failure unless ``ok``; returns ``ok``."""
        if not ok:
            scenario = f"{self.scenario}: " if self.scenario else ""
            self.failures.append(scenario + message)
        return bool(ok)

    def once(self, counts: Dict[str, int], keys: Iterable[str]) -> bool:
        """Check every key is terminal exactly once in a journal's
        ``terminal_counts`` (job or cell)."""
        bad = {
            key: counts.get(key, 0) for key in keys if counts.get(key, 0) != 1
        }
        return self.check(
            not bad, f"terminal counts off (want exactly 1 each): {bad}"
        )

    def verdict(
        self,
        results: Sequence[Any],
        expected: Optional[Sequence[Any]] = None,
        counts: Optional[Dict[str, int]] = None,
        keys: Iterable[str] = (),
    ) -> str:
        """The recovery verdict: ``results`` byte-identical to the
        oracle (``expected``, default the campaign's) and, given a
        journal's terminal ``counts``, every one of ``keys`` terminal
        exactly once.  Returns the step line's word for the results."""
        want = self.expected if expected is None else expected
        identical = list(results) == list(want)
        self.check(
            identical, "results are not byte-identical to the serial oracle"
        )
        if counts is not None:
            self.once(counts, keys)
        return "identical" if identical else "MISMATCH"

    def play(self, table: Dict[str, Scenario]) -> None:
        """Run ``table``'s scenarios in order in one scratch directory."""
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            self.tmp = tmp
            for name, scenario in table.items():
                self.scenario = name
                try:
                    self.step(name, scenario(self))
                except Exception as exc:  # noqa: BLE001 — fail, go on
                    traceback.print_exc()
                    self.check(False, f"{type(exc).__name__}: {exc}")
        self.scenario = ""

    def run(
        self,
        table: Dict[str, Scenario],
        oracle_step: str,
        describe: str,
        truth: Callable[[], List[Any]],
        summary: Callable[[], str],
    ) -> int:
        """Compute the oracle (``truth``), play ``table``, and report the
        verdict: exit code 0 if every check passed, else 1."""
        self.step(oracle_step, describe)
        started = time.monotonic()
        self.expected = truth()
        self.step(f"{oracle_step} done", f"{time.monotonic() - started:.1f}s")
        self.play(table)
        if self.failures:
            print()
            for failure in self.failures:
                print(f"{self.prefix} FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"{self.prefix}: all checks passed ({summary()})")
        return 0


def wait_for(predicate: Callable[[], Any], timeout: float, what: str) -> Any:
    """Poll ``predicate`` until it returns something truthy; return it.

    Raises :class:`TimeoutError` naming ``what`` after ``timeout``
    seconds, which fails the running scenario.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise TimeoutError(f"no {what} within {timeout:.0f}s")
        time.sleep(0.02)


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


def campaign_cells(campaign: Campaign, rows: Sequence[tuple]) -> List[Cell]:
    """The cells of ``(label, workload, config)`` rows on the campaign's
    engine; ``--workloads`` replaces the workloads in turn."""
    names = campaign.workloads
    return [
        on_engine(
            Cell(
                label=label,
                workload=names[index % len(names)] if names else workload,
                config=config,
                miss_scale=1.0,
            ),
            campaign.engine,
        )
        for index, (label, workload, config) in enumerate(rows)
    ]


def oracle(cells: Sequence[Cell]) -> List[str]:
    """The serial ground truth every recovery is compared against."""
    return [execute_cell(cell).canonical_json() for cell in cells]


class Proc:
    """A ``python -m <module>`` subprocess, SIGKILLed when its ``with``
    block ends."""

    def __init__(self, *module_args: str):
        self.process = subprocess.Popen(
            [sys.executable, "-m", *module_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def __enter__(self) -> "Proc":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.kill()

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
        return self.wait(30.0)

    def wait(self, timeout: float) -> int:
        """The exit code once the process ends by itself (SIGKILLed,
        and the wait raising, past ``timeout``)."""
        try:
            self.process.communicate(timeout=timeout)
        finally:
            self.kill()
        return self.process.returncode


class Daemon(Proc):
    """A ``python -m repro.serve`` subprocess on an ephemeral port."""

    def __init__(self, tmp: str, tag: str, *serve_args: str):
        port_file = os.path.join(tmp, f"port-{tag}")
        super().__init__(
            "repro.serve", "--port", "0", "--port-file", port_file,
            *serve_args,
        )

        def bound() -> bool:
            if self.process.poll() is not None:
                out = (self.process.stdout.read() or b"").decode(
                    "utf-8", errors="replace"
                )
                raise RuntimeError(
                    f"serve daemon died during startup "
                    f"(exit {self.process.returncode}): {out}"
                )
            return os.path.exists(port_file)

        def ready() -> Any:
            try:
                return self.client.readyz()
            except (ServeHTTPError, OSError):
                return None

        try:
            wait_for(bound, STARTUP_TIMEOUT, "port file from the serve daemon")
            with open(port_file, "r", encoding="utf-8") as handle:
                self.base_url = f"http://{handle.read().strip()}"
            self.client = ServeClient(self.base_url)
            # Readiness gate: replay finished, dispatcher running.
            wait_for(ready, STARTUP_TIMEOUT, "ready serve daemon")
        except BaseException:
            self.kill()
            raise

    def metrics_value(self, name: str) -> float:
        """Sum of ``name``'s series scraped from the daemon's /metrics."""
        samples = parse_prometheus(self.client.metrics_text())
        return sum(
            value for (sample, _), value in samples.items() if sample == name
        )


# -- the sweep campaign ------------------------------------------------


def _matrix(campaign: Campaign) -> List[Cell]:
    rows = [
        ("naive", "bfs", tiny("naive")),
        ("aug", "kmeans", tiny("augmented")),
        ("base", "bfs", tiny("no_tlb")),
    ]
    if not campaign.quick:
        rows += [
            ("aug", "bfs", tiny("augmented")),
            ("naive", "kmeans", tiny("naive")),
            ("ideal", "memcached", tiny("ideal")),
        ]
    return campaign_cells(campaign, rows)


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


def kill_restart(c: Campaign) -> str:
    """SIGKILL supervised workers mid-cell; their cells re-run."""
    killer = _Killer(c.seed, max_kills=1 if c.quick else 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        executor = SweepExecutor(
            jobs=c.jobs, chaos=killer, restart_budget=RESTART_BUDGET
        )
        recovered = _canonical(executor.run(c.cells))
    c.kills = killer.kills
    c.check(
        killer.kills >= killer.max_kills,
        f"{killer.kills} of {killer.max_kills} wanted kill(s) landed — the "
        "campaign under-exercised the restart path",
    )
    unrestarted = killer.unrestarted()
    c.check(
        not unrestarted,
        "killed cells not re-run once per kill: " + "; ".join(unrestarted),
    )
    rendered = "; ".join(str(w.message) for w in caught)
    c.check(not caught, f"sweep degraded with warnings ({rendered})")
    return (
        f"{killer.kills} worker(s) SIGKILLed, results {c.verdict(recovered)}"
    )


def torn_cache_entry(c: Campaign) -> str:
    """Resume a sweep from a cache with one entry torn, one emptied."""
    root = os.path.join(c.tmp, "cache")
    part = c.cells[:3]
    SweepExecutor(jobs=1, cache=ResultCache(root)).run(part)
    cache = _RecordingCache(root)
    torn, emptied = cache_key(part[0]), cache_key(part[1])
    with open(cache.path(torn), "r+b") as handle:
        handle.truncate(os.path.getsize(cache.path(torn)) // 2)
    with open(cache.path(emptied), "w", encoding="utf-8") as handle:
        handle.write("{}")
    resumed = _canonical(SweepExecutor(jobs=1, cache=cache).run(c.cells))
    keys = [cache_key(cell) for cell in c.cells]
    want = {torn, emptied} | (set(keys) - {cache_key(cell) for cell in part})
    c.check(
        sorted(cache.stored) == sorted(want),
        f"re-simulated {len(cache.stored)} cell(s), wanted exactly the "
        f"{len(want)} torn or never run",
    )
    clean = dict(zip(keys, c.expected))
    for key in (torn, emptied):
        with open(cache.path(key), "r", encoding="utf-8") as handle:
            c.check(
                handle.read() == clean[key],
                "a damaged entry was not rewritten with the clean result",
            )
    return (
        f"re-simulated {len(cache.stored)}/{len(want)}, {c.verdict(resumed)}"
    )


def mid_sweep_faults(c: Campaign) -> str:
    """A poisoned cell fails with its structured error mid-sweep."""
    poisoned = on_engine(_poisoned_cell(), c.engine)
    error: Optional[PTWError] = None
    try:
        SweepExecutor(jobs=c.jobs, restart_budget=RESTART_BUDGET).run(
            c.cells[:2] + [poisoned] + c.cells[2:]
        )
    except PTWError as exc:
        error = exc
    c.check(error is not None, "the poisoned cell did not raise")
    c.check(
        error is None or error.diagnostics.get("series") == "poisoned",
        "the structured error does not name the poisoned series",
    )
    return (
        f"poisoned cell #2 raised "
        f"{type(error).__name__ if error else 'nothing'}"
    )


SCENARIOS: Dict[str, Scenario] = {
    "kill/restart": kill_restart,
    "torn cache entry": torn_cache_entry,
    "mid-sweep faults": mid_sweep_faults,
}


def run_campaign(**params: Any) -> int:
    """Execute the sweep campaign; returns the process exit code."""
    c = Campaign("chaos", **params)
    c.cells = _matrix(c)
    return c.run(
        SCENARIOS,
        "baseline",
        f"{len(c.cells)} cells, serial",
        lambda: oracle(c.cells),
        lambda: f"seed {c.seed}, {c.kills} kill(s), {len(c.cells)} cells",
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
        "(SIGKILL mid-job, torn journal, expired leases, admission "
        "floods)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="attack the repro.dist coordinator/worker protocol instead "
        "(SIGKILL a worker or the coordinator holding a lease, partition "
        "a lease holder, replay completion pushes, tear result bodies)",
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
    params = dict(
        seed=args.seed,
        quick=args.quick,
        workloads=workloads,
        verbose=args.verbose,
        engine=args.engine,
    )
    if args.distributed:
        from repro.harness.chaos_dist import run_dist_campaign

        return run_dist_campaign(**params)
    if args.server:
        from repro.harness.chaos_server import run_server_campaign

        return run_server_campaign(**params)
    if args.jobs < 2:
        print("chaos needs --jobs >= 2 (supervision only runs in the "
              "parallel path)", file=sys.stderr)
        return 2
    return run_campaign(jobs=args.jobs, **params)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
