"""The supervised worker pool: heartbeats, hung-worker kills, bounded restarts.

One spawned process per sweep cell (up to the slot count), supervised
through a spool directory rather than pipes — pipes die with the
process, files survive it:

- ``hb-<index>``: touched by the worker as its *first* action and
  periodically from the issue loop's poll hook.  The parent reads its
  mtime; staleness beyond ``DEFAULT_STALE_AFTER`` seconds means the
  worker is hung and gets SIGKILLed.
- ``out-<index>.json``: the worker's final outcome (result or
  structured error), written atomically, so the parent never reads a
  torn result.

Failure taxonomy:

- **dead** (exit code set, no outcome, heartbeat seen): SIGKILL/OOM —
  respawn, and the new worker re-runs the cell from the start, up to
  ``restart_budget`` times per cell; exhaustion fails the *cell* with
  :class:`repro.faults.errors.WorkerCrashed`, never the sweep.
- **hung** (alive, heartbeat stale): SIGKILLed, then as above.
- **environment** (dead before its first heartbeat): the interpreter
  could not even start the worker (unimportable ``__main__``, broken
  spawn) — restarting cannot help, so the pool raises
  :class:`PoolEnvironmentFailure` and the executor degrades to serial
  execution, matching the old ``BrokenProcessPool`` fallback.

Repeated crashes additionally shrink the slot count (see
:class:`PoolHealth`) so a memory-starved host degrades to fewer
concurrent workers instead of thrashing every cell through its restart
budget.

Determinism: a cell's result is a pure function of its
:class:`~repro.parallel.cells.Cell`, so a re-run is byte-identical and
results never depend on which worker ran a cell or how often it was
killed.  Figure cells are short (well under a second serially), so a
re-run loses little.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.results import SimulationResult
from repro.durable import atomic_write
from repro.faults.errors import SimulationError, WorkerCrashed
from repro.obs import log as _log
from repro.parallel.backoff import Backoff
from repro.parallel.cells import Cell, error_payload, execute_cell, key_of

#: Parent poll period, seconds (also the chaos hook's tick).
_TICK_SECONDS = 0.05

#: Default restarts per cell before the cell fails with WorkerCrashed.
DEFAULT_RESTART_BUDGET = 2

#: Default heartbeat staleness (seconds) before a live worker counts as
#: hung.  Generous: heartbeats are relayed from the issue loop every few
#: hundred iterations, orders of magnitude faster than this.
DEFAULT_STALE_AFTER = 30.0

#: Minimum seconds between actual utime() calls of a worker heartbeat.
_HEARTBEAT_PERIOD = 0.2


class PoolEnvironmentFailure(RuntimeError):
    """Workers die before their first heartbeat: spawning is broken."""


class PoolHealth:
    """Slot-count governor: repeated crashes shrink the pool.

    ``shrink_after`` *consecutive* crashes (no success in between)
    drop one slot, down to a floor of one — an OOM-prone host ends up
    running fewer cells at a time instead of burning every cell's
    restart budget.  Any completed cell resets the streak.
    """

    def __init__(self, slots: int, shrink_after: int = 2):
        self.slots = max(1, slots)
        self.shrink_after = max(1, shrink_after)
        self._streak = 0
        self.shrinks = 0

    def on_crash(self) -> None:
        self._streak += 1
        if self._streak >= self.shrink_after and self.slots > 1:
            self.slots -= 1
            self.shrinks += 1
            self._streak = 0

    def on_success(self) -> None:
        self._streak = 0


class _Heartbeat:
    """Worker-side heartbeat: throttled utime on the spool file."""

    def __init__(self, path: str):
        self.path = path
        self._last = 0.0
        self()  # first beat immediately — before any simulation work

    def __call__(self) -> None:
        now = time.monotonic()
        if now - self._last < _HEARTBEAT_PERIOD:
            return
        self._last = now
        with open(self.path, "a", encoding="utf-8"):
            pass
        os.utime(self.path)


def _worker_entry(
    index: int,
    cell: Cell,
    retries: int,
    timeout: Optional[float],
    spool: str,
) -> None:
    """Spawned-process entry: run one cell, leave an outcome file.

    No exception ever crosses the process boundary: structured errors
    become ``"error"`` outcomes (with traceback and cell key), anything
    else becomes a ``"raise"`` outcome the parent re-raises by type.
    Only a kill leaves no outcome at all — which is exactly how the
    parent tells a crash from a failure.
    """
    import traceback

    # A spawned process starts with logging off; the run log's path
    # rides the environment it inherits.
    _log.configure_from_env()
    heartbeat = _Heartbeat(os.path.join(spool, f"hb-{index}"))
    try:
        result = execute_cell(
            cell, retries=retries, timeout=timeout, heartbeat=heartbeat
        )
        outcome: Dict[str, Any] = {"status": "ok", "result": result.to_dict()}
    except SimulationError as exc:
        outcome = {
            "status": "error",
            "payload": list(error_payload(exc, cell, retries)),
        }
    except BaseException as exc:  # noqa: BLE001 — the boundary
        outcome = {
            "status": "raise",
            "payload": [
                type(exc).__module__,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            ],
        }
    atomic_write(
        os.path.join(spool, f"out-{index}.json"),
        json.dumps(outcome, sort_keys=True),
    )


def _rebuild_raise(payload: List[Any]) -> BaseException:
    """Re-raise a worker's non-structured exception by imported type."""
    module_name, type_name, message, worker_traceback = payload
    try:
        import importlib

        exc_type = getattr(importlib.import_module(module_name), type_name)
        if not (
            isinstance(exc_type, type) and issubclass(exc_type, BaseException)
        ):
            raise TypeError
        exc = exc_type(message)
    except Exception:
        exc = RuntimeError(f"{module_name}.{type_name}: {message}")
    exc.worker_traceback = worker_traceback  # type: ignore[attr-defined]
    return exc


class _Worker:
    """Parent-side view of one cell's supervised process."""

    def __init__(self, index: int, cell: Cell):
        self.index = index
        self.cell = cell
        self.process: Any = None
        self.spawns = 0
        self.deadline = 0.0
        # When set, the worker crashed and its replacement spawns only
        # once this monotonic timestamp passes (restart backoff).
        self.respawn_at: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


Outcome = Tuple[str, Any]  # ("ok", SimulationResult) | ("error", payload)


class SupervisedPool:
    """Run sweep cells on supervised spawned workers.

    Parameters
    ----------
    jobs:
        Initial slot count (may shrink; see :class:`PoolHealth`).
    retries:
        Structured-error retries *inside* each worker (seed-perturbed),
        exactly as the serial path applies them.
    timeout:
        Per-attempt wall-clock bound inside the worker.
    restart_budget:
        Worker restarts per cell before the cell fails.
    chaos:
        Optional callback invoked once per supervision tick with this
        pool — the chaos harness uses it to kill workers mid-sweep.
        Production sweeps pass ``None``.
    on_outcome:
        Callback ``(index, status, payload)`` fired with
        ``("spawned", None)`` when a cell's first worker starts (the
        executor starts the cell's clock and counts it in flight), then
        once as the cell resolves (in completion order; the executor
        records checkpoint/cache entries here).
    """

    def __init__(
        self,
        jobs: int,
        *,
        retries: int = 0,
        timeout: Optional[float] = None,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        chaos: Optional[Callable[["SupervisedPool"], None]] = None,
        on_outcome: Optional[Callable[[int, str, Any], None]] = None,
    ):
        self.retries = retries
        self.timeout = timeout
        self.restart_budget = max(0, restart_budget)
        self.chaos = chaos
        self.on_outcome = on_outcome
        # Crashed workers respawn after a decorrelated-jitter delay (a
        # host that just OOM-killed a worker will kill an instant
        # replacement too); the same policy serves the lease re-queue
        # in repro.serve.  Capped at 1s so chaos campaigns stay quick.
        self.restart_backoff = Backoff(base=0.05, cap=1.0, seed=0)
        self.health = PoolHealth(jobs)
        self.active: Dict[int, _Worker] = {}
        self.spool: Optional[str] = None
        self.restarts = 0
        self.kills_for_staleness = 0

    # -- spool paths (also used by the chaos harness) -------------------

    def heartbeat_path(self, index: int) -> str:
        assert self.spool is not None
        return os.path.join(self.spool, f"hb-{index}")

    def outcome_path(self, index: int) -> str:
        assert self.spool is not None
        return os.path.join(self.spool, f"out-{index}.json")

    # -- supervision ----------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        worker.process = context.Process(
            target=_worker_entry,
            args=(
                worker.index,
                worker.cell,
                self.retries,
                self.timeout,
                self.spool,
            ),
            daemon=True,
        )
        worker.spawns += 1
        # Staleness countdown starts at spawn: a worker that never
        # heartbeats at all must still trip the deadline eventually.
        worker.deadline = time.monotonic() + DEFAULT_STALE_AFTER
        worker.process.start()
        if _log.ENABLED:
            self._worker_log(worker).debug(
                "worker_spawn", pid=worker.process.pid, spawns=worker.spawns
            )

    def _heartbeat_age(self, worker: _Worker) -> Optional[float]:
        """Seconds since the worker's last heartbeat, None if never."""
        try:
            mtime = os.path.getmtime(self.heartbeat_path(worker.index))
        except OSError:
            return None
        return max(0.0, time.time() - mtime)

    def _collect_outcome(self, worker: _Worker) -> Optional[Outcome]:
        path = self.outcome_path(worker.index)
        if not os.path.exists(path):
            return None
        # The outcome write is atomic, so an existing file is complete;
        # give the process a moment to actually exit before moving on.
        worker.process.join(timeout=10.0)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None  # torn by chaos mid-rename: treat as crash
        status = entry.get("status")
        if status == "ok":
            return "ok", SimulationResult.from_dict(entry["result"])
        if status == "error":
            return "error", tuple(entry["payload"])
        if status == "raise":
            raise _rebuild_raise(entry["payload"])
        return None

    def _worker_log(self, worker: _Worker) -> _log.RunLogger:
        """Pool logger bound with the worker's cell identity."""
        return _log.get_logger(
            "pool",
            slot=worker.index,
            cell=key_of(worker.cell)[:12],
            series=worker.cell.label,
            workload=worker.cell.workload,
        )

    def _crash_outcome(self, worker: _Worker, reason: str) -> Outcome:
        exit_code = worker.process.exitcode
        error = WorkerCrashed(
            f"cell {worker.cell.describe()}: worker {reason} "
            f"{worker.spawns} time(s) (last exit code {exit_code}); "
            f"restart budget of {self.restart_budget} exhausted",
            diagnostics={
                "cell_key": key_of(worker.cell),
                "series": worker.cell.label,
                "workload": worker.cell.workload,
                "spawns": worker.spawns,
                "exit_code": exit_code,
                "reason": reason,
            },
        )
        return "error", (
            "WorkerCrashed",
            str(error),
            error.diagnostics,
            worker.spawns,
        )

    def _resolve(self, worker: _Worker, outcome: Outcome) -> None:
        status, payload = outcome
        if status == "ok":
            self.health.on_success()
        if _log.ENABLED:
            log = self._worker_log(worker)
            if status == "ok":
                log.info("worker_done", status=status, spawns=worker.spawns)
            else:
                log.warning(
                    "worker_done",
                    status=status,
                    error=payload[0] if payload else None,
                    spawns=worker.spawns,
                )
        del self.active[worker.index]
        for path in (
            self.heartbeat_path(worker.index),
            self.outcome_path(worker.index),
        ):
            try:
                os.remove(path)
            except OSError:
                pass
        if self.on_outcome is not None:
            self.on_outcome(worker.index, status, payload)

    def _handle_crash(self, worker: _Worker, reason: str) -> None:
        self.health.on_crash()
        if worker.spawns > self.restart_budget:
            if _log.ENABLED:
                self._worker_log(worker).error(
                    "worker_crash",
                    reason=reason,
                    spawns=worker.spawns,
                    budget_exhausted=True,
                )
            self._resolve(worker, self._crash_outcome(worker, reason))
            return
        self.restarts += 1
        # Defer the respawn instead of sleeping: other workers stay
        # supervised while this slot backs off.
        delay = self.restart_backoff.next()
        worker.respawn_at = time.monotonic() + delay
        if _log.ENABLED:
            self._worker_log(worker).warning(
                "worker_crash",
                reason=reason,
                spawns=worker.spawns,
                respawn_in=round(delay, 3),
                slots=self.health.slots,
            )

    def run(self, cells: Sequence[Tuple[int, Cell]]) -> None:
        """Supervise every ``(index, cell)`` to an outcome.

        Raises :class:`PoolEnvironmentFailure` when worker processes die
        before their first heartbeat (the caller falls back to serial);
        cells already resolved by then have had their ``on_outcome``
        fired and are not re-run.
        """
        queue = list(cells)
        self.spool = tempfile.mkdtemp(prefix="repro-pool-")
        if _log.ENABLED:
            _log.get_logger("pool").info(
                "pool_start", cells=len(queue), slots=self.health.slots
            )
        try:
            while queue or self.active:
                while queue and len(self.active) < self.health.slots:
                    index, cell = queue.pop(0)
                    worker = _Worker(index, cell)
                    self.active[index] = worker
                    self._spawn(worker)
                    if self.on_outcome is not None:
                        self.on_outcome(index, "spawned", None)
                if self.chaos is not None:
                    self.chaos(self)
                time.sleep(_TICK_SECONDS)
                for worker in list(self.active.values()):
                    if worker.respawn_at is not None:
                        if time.monotonic() >= worker.respawn_at:
                            worker.respawn_at = None
                            self._spawn(worker)
                        continue
                    outcome = self._collect_outcome(worker)
                    if outcome is not None:
                        self._resolve(worker, outcome)
                        continue
                    age = self._heartbeat_age(worker)
                    if worker.process.exitcode is not None:
                        if age is None:
                            raise PoolEnvironmentFailure(
                                f"worker for cell "
                                f"{worker.cell.describe()} died (exit "
                                f"code {worker.process.exitcode}) before "
                                f"its first heartbeat; spawning is broken"
                            )
                        self._handle_crash(worker, "died")
                        continue
                    stale = (
                        age > DEFAULT_STALE_AFTER
                        if age is not None
                        else time.monotonic() > worker.deadline
                    )
                    if stale:
                        self.kills_for_staleness += 1
                        worker.process.kill()
                        worker.process.join(timeout=10.0)
                        self._handle_crash(worker, "hung")
        finally:
            for worker in self.active.values():
                if worker.process is not None:
                    worker.process.kill()
            for worker in self.active.values():
                if worker.process is not None:
                    worker.process.join(timeout=5.0)
            self.active.clear()
            if self.spool is not None:
                shutil.rmtree(self.spool, ignore_errors=True)
                self.spool = None
            if _log.ENABLED:
                _log.get_logger("pool").info(
                    "pool_drained",
                    restarts=self.restarts,
                    stale_kills=self.kills_for_staleness,
                    slots=self.health.slots,
                )
