"""The supervised worker pool: heartbeats, hung-worker kills, bounded restarts.

Each slot runs one spawned worker process that executes cell after cell
over one duplex pipe.  The parent sends ``(index, cell)`` tasks and
finally ``None``; the worker sends a first heartbeat as soon as it
starts, further heartbeats relayed from the issue loop's poll hook (at
most one per ``_HEARTBEAT_PERIOD`` seconds), and one outcome per cell
(result or structured error).  The parent blocks in
:func:`multiprocessing.connection.wait` on every pipe and process
sentinel, so it wakes for a message, a death, or the next deadline.

Failure taxonomy, per worker process:

- **dead** (sentinel fired after its first heartbeat): SIGKILL/OOM.  The
  cell it held waits out the restart backoff, then re-runs from the
  start on another worker, up to ``restart_budget`` times per cell;
  exhaustion fails the *cell* with
  :class:`repro.faults.errors.WorkerCrashed`, never the sweep.
- **hung** (holds a cell and silent for ``DEFAULT_STALE_AFTER``
  seconds): SIGKILLed, then as above.  An idle worker is never hung.
- **environment** (dead before its first heartbeat): the interpreter
  could not even start the worker (unimportable ``__main__``, broken
  spawn) — restarting cannot help, so the pool raises
  :class:`PoolEnvironmentFailure` and the executor degrades to serial
  execution.

Repeated crashes additionally shrink the slot count (see
:class:`PoolHealth`), and the pool retires an idle worker to match, so
a memory-starved host degrades to fewer concurrent workers instead of
thrashing every cell through its restart budget.

Determinism: a cell's result is a pure function of its
:class:`~repro.parallel.cells.Cell`, so a re-run is byte-identical and
results never depend on which worker ran a cell, what it ran before,
or how often it was killed.  Figure cells are short (well under a
second serially), so a re-run loses little.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.faults.errors import SimulationError, WorkerCrashed
from repro.obs import log as _log
from repro.parallel.backoff import Backoff
from repro.parallel.cells import Cell, error_payload, execute_cell, key_of

#: Supervision tick while a chaos hook is installed, seconds.
_TICK_SECONDS = 0.05

#: Default restarts per cell before the cell fails with WorkerCrashed.
DEFAULT_RESTART_BUDGET = 2

#: Default silence (seconds) before a worker holding a cell counts as
#: hung.  Generous: heartbeats are relayed from the issue loop every few
#: hundred iterations, orders of magnitude faster than this.
DEFAULT_STALE_AFTER = 30.0

#: Minimum seconds between heartbeats a worker actually sends.
_HEARTBEAT_PERIOD = 0.2

#: Consecutive crashes (no success in between) that cost one slot.
SHRINK_AFTER = 2


class PoolEnvironmentFailure(RuntimeError):
    """Workers die before their first heartbeat: spawning is broken."""


class PoolHealth:
    """Slot-count governor: repeated crashes shrink the pool.

    ``SHRINK_AFTER`` *consecutive* crashes (no success in between) drop
    one slot, down to a floor of one — an OOM-prone host ends up
    running fewer cells at a time instead of burning every cell's
    restart budget.  Any completed cell resets the streak.
    """

    def __init__(self, slots: int):
        self.slots = max(1, slots)
        self._streak = 0
        self.shrinks = 0

    def on_crash(self) -> None:
        self._streak += 1
        if self._streak >= SHRINK_AFTER and self.slots > 1:
            self.slots -= 1
            self.shrinks += 1
            self._streak = 0

    def on_success(self) -> None:
        self._streak = 0


class _Heartbeat:
    """Worker-side heartbeat: a throttled message up the pipe."""

    def __init__(self, conn: Any):
        self.conn = conn
        self._last = 0.0
        self()  # first beat immediately — before any simulation work

    def __call__(self) -> None:
        now = time.monotonic()
        if now - self._last < _HEARTBEAT_PERIOD:
            return
        self._last = now
        self.conn.send(("beat", None))


def _worker_main(conn: Any, retries: int, timeout: Optional[float]) -> None:
    """Spawned-process entry: run cell after cell until sent ``None``.

    No exception ever crosses the process boundary: structured errors
    become ``"error"`` outcomes (with traceback and cell key), anything
    else becomes a ``"raise"`` outcome the parent re-raises by type,
    after which the pool is torn down, so the worker exits.  Only a
    kill leaves a cell without an outcome — which is exactly how the
    parent tells a crash from a failure.
    """
    import traceback

    # A spawned process starts with logging off; the run log's path
    # rides the environment it inherits.
    _log.configure_from_env()
    heartbeat = _Heartbeat(conn)
    while True:
        task = conn.recv()
        if task is None:
            return
        _, cell = task
        try:
            result = execute_cell(
                cell, retries=retries, timeout=timeout, heartbeat=heartbeat
            )
            conn.send(("ok", result))
        except SimulationError as exc:
            conn.send(("error", error_payload(exc, cell, retries)))
        except BaseException as exc:  # noqa: BLE001 — the boundary
            kind = type(exc)
            payload = [kind.__module__, kind.__name__, str(exc)]
            conn.send(("raise", payload + [traceback.format_exc()]))
            return


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


class _Task:
    """One cell's supervision state, across the workers that run it."""

    def __init__(self, index: int, cell: Cell):
        self.index = index
        self.cell = cell
        #: Workers this cell has been started on.
        self.spawns = 0
        #: Monotonic instant before which the cell must not (re)start:
        #: the restart backoff after its worker crashed.
        self.ready_at = 0.0


class _Worker:
    """Parent-side view of one long-lived worker process."""

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        #: The cell this worker is running, None while idle.
        self.task: Optional[_Task] = None
        #: Whether its first heartbeat has arrived.
        self.beaten = False
        #: Monotonic instant of its last message, or of the cell handed
        #: to it, whichever is later: the hung-worker clock.
        self.heard = time.monotonic()


class SupervisedPool:
    """Run sweep cells on supervised, long-lived spawned workers.

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
        Re-runs per cell, each after its worker died or hung, before
        the cell fails.
    chaos:
        Optional callback invoked once per supervision tick with this
        pool — the chaos harness uses it to kill workers mid-sweep.
        Production sweeps pass ``None``.
    on_outcome:
        Callback ``(index, status, payload)`` fired with
        ``("spawned", None)`` when a cell is first handed to a worker
        (the executor starts the cell's clock and counts it in flight),
        then once as the cell resolves (in completion order; the
        executor stores cache entries here).
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
        # A crashed worker's cell re-runs after a decorrelated-jitter
        # delay (a host that just OOM-killed a worker will kill an
        # instant replacement too); the same policy serves the lease
        # re-queue in repro.serve.  Capped at 1s so chaos campaigns
        # stay quick.
        self.restart_backoff = Backoff(base=0.05, cap=1.0, seed=0)
        self.health = PoolHealth(jobs)
        #: Live worker processes (the chaos harness reads this).
        self.workers: List[_Worker] = []
        self.restarts = 0
        self.kills_for_staleness = 0

    # -- workers --------------------------------------------------------

    def _spawn(self) -> _Worker:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self.retries, self.timeout),
            daemon=True,
        )
        process.start()
        # Only the worker holds its end now, so its death reads as EOF.
        child_conn.close()
        worker = _Worker(process, conn)
        self.workers.append(worker)
        if _log.ENABLED:
            _log.get_logger("pool").debug(
                "worker_spawn", pid=process.pid, workers=len(self.workers)
            )
        return worker

    def _start(self, worker: _Worker, task: _Task) -> None:
        worker.task = task
        worker.heard = time.monotonic()
        task.spawns += 1
        try:
            worker.conn.send((task.index, task.cell))
        except OSError:
            pass  # died since the last pass: buried, holding the cell
        if task.spawns == 1 and self.on_outcome is not None:
            self.on_outcome(task.index, "spawned", None)

    def _stop(self, workers: Sequence[_Worker]) -> None:
        """Ask idle workers to exit, kill busy ones, and reap them all."""
        for worker in workers:
            if worker.task is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already dead
            else:
                worker.process.kill()
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join()
            worker.conn.close()

    # -- supervision ----------------------------------------------------

    def _task_log(self, task: _Task) -> _log.RunLogger:
        """Pool logger bound with the task's cell identity."""
        return _log.get_logger(
            "pool",
            slot=task.index,
            cell=key_of(task.cell)[:12],
            series=task.cell.label,
            workload=task.cell.workload,
        )

    def _resolve(self, task: _Task, status: str, payload: Any) -> None:
        """Report a cell's outcome: ``ok`` (a result) or ``error``."""
        if status == "ok":
            self.health.on_success()
        if _log.ENABLED:
            log = self._task_log(task)
            if status == "ok":
                log.info("worker_done", status=status, spawns=task.spawns)
            else:
                log.warning(
                    "worker_done",
                    status=status,
                    error=payload[0] if payload else None,
                    spawns=task.spawns,
                )
        if self.on_outcome is not None:
            self.on_outcome(task.index, status, payload)

    def _receive(self, worker: _Worker) -> None:
        """Apply every message the worker has sent so far."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                kind, payload = worker.conn.recv()
            except (EOFError, OSError):
                # The worker is gone: reap it, so the caller reads its
                # exit code next.
                worker.process.join(timeout=10.0)
                return
            worker.beaten = True
            worker.heard = time.monotonic()
            if kind == "raise":
                raise _rebuild_raise(payload)
            if kind != "beat":
                task, worker.task = worker.task, None
                self._resolve(task, kind, payload)

    def _bury(self, worker: _Worker, reason: str, queue: List[_Task]) -> None:
        """Account for a worker that died (or was killed as hung)."""
        self.workers.remove(worker)
        worker.conn.close()
        exit_code = worker.process.exitcode
        if not worker.beaten and reason == "died":
            raise PoolEnvironmentFailure(
                f"worker {worker.process.pid} died (exit code {exit_code}) "
                f"before its first heartbeat; spawning is broken"
            )
        self.health.on_crash()
        task = worker.task
        exhausted = task is not None and task.spawns > self.restart_budget
        if _log.ENABLED:
            log = self._task_log(task) if task else _log.get_logger("pool")
            log.log(
                _log.ERROR if exhausted else _log.WARNING,
                "worker_crash",
                reason=reason,
                pid=worker.process.pid,
                spawns=task.spawns if task is not None else 0,
                budget_exhausted=exhausted,
                slots=self.health.slots,
            )
        if task is None:
            return  # died idle: no cell to re-run
        if exhausted:
            diagnostics = {
                "cell_key": key_of(task.cell),
                "series": task.cell.label,
                "workload": task.cell.workload,
                "spawns": task.spawns,
                "exit_code": exit_code,
                "reason": reason,
            }
            message = (
                f"cell {task.cell.describe()}: worker {reason} "
                f"{task.spawns} time(s) (last exit code {exit_code}); "
                f"restart budget of {self.restart_budget} exhausted"
            )
            self._resolve(
                task,
                "error",
                (WorkerCrashed.__name__, message, diagnostics, task.spawns),
            )
            return
        # Defer the re-run instead of sleeping: other workers stay
        # supervised while this cell backs off.
        self.restarts += 1
        task.ready_at = time.monotonic() + self.restart_backoff.next()
        queue.insert(0, task)

    def _dispatch(self, queue: List[_Task]) -> None:
        """Match slots to workers, then ready cells to idle workers."""
        idle = [worker for worker in self.workers if worker.task is None]
        while len(self.workers) > self.health.slots and idle:
            retired = idle.pop()
            self.workers.remove(retired)
            self._stop([retired])
        now = time.monotonic()
        for task in [task for task in queue if task.ready_at <= now]:
            if idle:
                worker = idle.pop(0)
            elif len(self.workers) < self.health.slots:
                worker = self._spawn()
            else:
                return
            queue.remove(task)
            self._start(worker, task)

    def _timeout(self, queue: List[_Task]) -> Optional[float]:
        """Seconds until the next deadline (None: wait for an event)."""
        now = time.monotonic()
        deadlines = [
            worker.heard + DEFAULT_STALE_AFTER
            for worker in self.workers
            if worker.task is not None
        ]
        deadlines += [task.ready_at for task in queue if task.ready_at > now]
        if self.chaos is not None:
            deadlines.append(now + _TICK_SECONDS)
        return max(0.0, min(deadlines) - now) if deadlines else None

    def run(self, cells: Sequence[Tuple[int, Cell]]) -> None:
        """Supervise every ``(index, cell)`` to an outcome.

        Raises :class:`PoolEnvironmentFailure` when a worker process
        dies before its first heartbeat (the caller falls back to
        serial); cells already resolved by then have had their
        ``on_outcome`` fired and are not re-run.
        """
        from multiprocessing.connection import wait

        queue = [_Task(index, cell) for index, cell in cells]
        if _log.ENABLED:
            _log.get_logger("pool").info(
                "pool_start", cells=len(queue), slots=self.health.slots
            )
        try:
            while queue or any(w.task is not None for w in self.workers):
                self._dispatch(queue)
                if self.chaos is not None:
                    self.chaos(self)
                wait(
                    [worker.conn for worker in self.workers]
                    + [worker.process.sentinel for worker in self.workers],
                    self._timeout(queue),
                )
                for worker in list(self.workers):
                    self._receive(worker)
                    if worker.process.exitcode is not None:
                        self._bury(worker, "died", queue)
                    elif (
                        worker.task is not None
                        and time.monotonic() - worker.heard
                        > DEFAULT_STALE_AFTER
                    ):
                        self.kills_for_staleness += 1
                        worker.process.kill()
                        worker.process.join(timeout=10.0)
                        self._bury(worker, "hung", queue)
        finally:
            self._stop(self.workers)
            self.workers.clear()
            if _log.ENABLED:
                _log.get_logger("pool").info(
                    "pool_drained",
                    restarts=self.restarts,
                    stale_kills=self.kills_for_staleness,
                    slots=self.health.slots,
                )
