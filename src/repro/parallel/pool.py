"""The sweep executor: serial or multiprocess, one determinism contract.

:class:`SweepExecutor` runs a list of :class:`~repro.parallel.cells.Cell`
and returns their results *in cell order*, regardless of completion
order.  Every cell is resolved through the same three-stage pipeline:

1. **checkpoint** — a cell already recorded in the
   :class:`repro.harness.checkpoint.SweepCheckpoint` is reused;
2. **cache** — a content-identical simulation from any earlier sweep or
   figure found in the :class:`repro.parallel.cache.ResultCache` is
   reused (and recorded to the checkpoint);
3. **simulate** — everything else executes via
   :func:`repro.parallel.cells.execute_cell` (bounded retries with
   perturbed fault seeds, per-attempt wall-clock guard), either inline
   or on the spawned, supervised worker pool.  The pool runs only with
   ``jobs > 1`` and at least two pending cells: one pending cell always
   runs inline.

Determinism contract: parallel and serial execution produce
byte-identical results.  Cells are self-contained (config embeds the
fault seed); workers are spawned, never forked (no inherited tracer or
RNG state), and run cells back to back exactly as the serial path does;
results return whole over each worker's pipe; and only the parent
process ever writes the checkpoint or assembles output — so nothing can
depend on scheduling order or on which worker ran a cell.
``tests/parallel/`` pins this on real figures.

Failure semantics: the serial path aborts at the first failing cell
(recording it first), matching the pre-parallel harness.  The parallel
path lets in-flight cells finish and record, then raises the error of
the *earliest* failed cell — so a resume loses no completed work and
the raised error does not depend on worker timing.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
)

from repro.core.results import SimulationResult
from repro.faults.errors import SimulationError
from repro.parallel import progress as _progress
from repro.parallel.cache import ResultCache
from repro.parallel.cells import Cell, execute_cell, key_of, rebuild_error
from repro.parallel.progress import SweepProgress
from repro.parallel.supervisor import (
    DEFAULT_RESTART_BUDGET,
    PoolEnvironmentFailure,
    SupervisedPool,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.checkpoint import SweepCheckpoint


def default_jobs() -> int:
    """The CLI default worker count: every core the host offers."""
    return os.cpu_count() or 1


class SweepExecutor:
    """Executes sweep cells against a checkpoint, cache, and pool."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        cache: Optional[ResultCache] = None,
        retries: int = 0,
        timeout: Optional[float] = None,
        progress_stream: Optional[TextIO] = None,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        chaos: Optional[Callable[[SupervisedPool], None]] = None,
    ):
        self.jobs = max(1, jobs if jobs is not None else 1)
        self.checkpoint = checkpoint
        self.cache = cache
        self.retries = max(0, retries)
        self.timeout = timeout
        self.progress_stream = progress_stream
        # Supervision knobs (parallel path only): worker restarts per
        # cell and the chaos harness's fault-injection hook.
        self.restart_budget = restart_budget
        self.chaos = chaos

    # -- lookup helpers ------------------------------------------------

    def _checkpoint_lookup(self, cell: Cell) -> Optional[SimulationResult]:
        if self.checkpoint is None:
            return None
        return self.checkpoint.get(key_of(cell))

    def _record_ok(self, cell: Cell, result: SimulationResult) -> None:
        if self.checkpoint is not None:
            self.checkpoint.record(key_of(cell), result)

    def _record_failure(
        self, cell: Cell, error: SimulationError, attempts: int
    ) -> None:
        if self.checkpoint is not None:
            self.checkpoint.record_failure(key_of(cell), error, attempts)

    # -- execution -----------------------------------------------------

    def run(self, cells: Sequence[Cell]) -> List[SimulationResult]:
        """Resolve every cell; results align with ``cells`` by index."""
        progress = SweepProgress(
            total=len(cells), jobs=self.jobs, stream=self.progress_stream
        )
        results: List[Optional[SimulationResult]] = [None] * len(cells)
        pending: List[int] = []
        for index, cell in enumerate(cells):
            found = self._checkpoint_lookup(cell)
            if found is not None:
                results[index] = found
                progress.cell_done(
                    _progress.SOURCE_CHECKPOINT, label=cell.describe()
                )
                continue
            if self.cache is not None:
                cached = self.cache.get(cell)
                if cached is not None:
                    results[index] = cached
                    self._record_ok(cell, cached)
                    progress.cell_done(
                        _progress.SOURCE_CACHE, label=cell.describe()
                    )
                    continue
            pending.append(index)
        if pending:
            if self.jobs <= 1 or len(pending) == 1:
                self._run_serial(cells, pending, results, progress)
            else:
                self._run_parallel(cells, pending, results, progress)
        progress.report(force=True)
        return results  # type: ignore[return-value]

    def _finish_ok(
        self,
        cell: Cell,
        result: SimulationResult,
        seconds: float,
        progress: SweepProgress,
    ) -> None:
        self._record_ok(cell, result)
        if self.cache is not None:
            self.cache.put(cell, result)
        progress.cell_done(
            _progress.SOURCE_SIMULATED,
            cell_seconds=seconds,
            label=cell.describe(),
        )

    def _run_serial(
        self,
        cells: Sequence[Cell],
        pending: List[int],
        results: List[Optional[SimulationResult]],
        progress: SweepProgress,
    ) -> None:
        for index in pending:
            cell = cells[index]
            progress.launched()
            started = time.monotonic()
            try:
                result = execute_cell(
                    cell, retries=self.retries, timeout=self.timeout
                )
            except SimulationError as exc:
                attempts = int(exc.diagnostics.get("attempts", self.retries + 1))
                self._record_failure(cell, exc, attempts)
                progress.cell_done(
                    _progress.SOURCE_FAILED,
                    cell_seconds=time.monotonic() - started,
                    label=cell.describe(),
                )
                raise
            results[index] = result
            self._finish_ok(
                cell, result, time.monotonic() - started, progress
            )

    def _run_parallel(
        self,
        cells: Sequence[Cell],
        pending: List[int],
        results: List[Optional[SimulationResult]],
        progress: SweepProgress,
    ) -> None:
        # Spawned (not forked) workers: each starts from a clean
        # interpreter, so no tracer/RNG/file-handle state leaks from the
        # parent and results cannot depend on inherited globals.  The
        # SupervisedPool additionally heartbeats, kills hung workers,
        # and re-runs a killed worker's cell on another worker (see
        # repro.parallel.supervisor).
        errors: Dict[int, SimulationError] = {}
        started_at: Dict[int, float] = {}

        def on_outcome(index: int, status: str, payload) -> None:
            if status == "spawned":
                # The pool runs at most ``jobs`` cells at a time: a
                # cell's clock starts when a worker gets it, not when
                # it is queued.
                started_at[index] = time.monotonic()
                progress.launched()
                return
            cell = cells[index]
            seconds = time.monotonic() - started_at[index]
            if status == "ok":
                results[index] = payload
                self._finish_ok(cell, payload, seconds, progress)
                return
            type_name, message, diagnostics, attempts = payload
            error = rebuild_error(type_name, message, diagnostics)
            errors[index] = error
            self._record_failure(cell, error, attempts)
            progress.cell_done(
                _progress.SOURCE_FAILED,
                cell_seconds=seconds,
                label=cell.describe(),
            )

        pool = SupervisedPool(
            min(self.jobs, len(pending)),
            retries=self.retries,
            timeout=self.timeout,
            restart_budget=self.restart_budget,
            chaos=self.chaos,
            on_outcome=on_outcome,
        )
        try:
            pool.run([(index, cells[index]) for index in pending])
        except PoolEnvironmentFailure:
            # Spawned workers re-import __main__; scripts fed via stdin
            # or ``python -c`` have none to import, and a host can kill
            # workers faster than they can heartbeat.  Cells are
            # idempotent, so finish the unresolved ones inline rather
            # than losing the sweep.
            warnings.warn(
                "worker pool died (unimportable __main__ or killed "
                "worker); finishing remaining cells serially",
                RuntimeWarning,
                stacklevel=2,
            )
            remaining = [
                index
                for index in pending
                if results[index] is None and index not in errors
            ]
            # The serial path counts these in flight again.
            progress.launched(-sum(index in started_at for index in remaining))
            self._run_serial(cells, remaining, results, progress)
        if errors:
            raise errors[min(errors)]
