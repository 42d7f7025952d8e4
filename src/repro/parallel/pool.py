"""The sweep executor: serial or multiprocess, one determinism contract.

:class:`SweepExecutor` runs a list of :class:`~repro.parallel.cells.Cell`
and returns their results *in cell order*, regardless of completion
order.  Every cell is resolved by its content key,
:func:`repro.parallel.cache.cache_key`, computed once per cell, from
the first of:

1. **memo** — a result this executor already resolved (kept for the
   executor's lifetime, so figures sharing a design point inside one
   :func:`repro.harness.experiment.sweep_session` simulate it once);
2. **cache** — a content-identical simulation from any earlier sweep or
   figure found in the :class:`repro.parallel.cache.ResultCache`;
3. **simulate** — everything else executes via
   :func:`repro.parallel.cells.execute_cell` (bounded retries with
   perturbed fault seeds, per-attempt wall-clock guard), either inline
   or on the spawned, supervised worker pool.  Cells that share a key
   simulate once: one task per key, and the others take its result.
   The pool runs only with ``jobs > 1`` and at least two keys to
   simulate: one always runs inline.

Memo and cache hits both count as source ``cache`` in progress
reporting.  Each simulated result is stored in the cache the moment it
finishes, so a killed sweep resumes from the cache with every finished
cell intact.

Determinism contract: parallel and serial execution produce
byte-identical results.  Cells are self-contained (config embeds the
fault seed); workers are spawned, never forked (no inherited tracer or
RNG state), and run cells back to back exactly as the serial path does;
results return whole over each worker's pipe; and only the parent
process ever writes the cache or assembles output — so nothing can
depend on scheduling order or on which worker ran a cell.
``tests/parallel/`` pins this on real figures.

Failure semantics: the serial path aborts at the first failing cell,
matching the pre-parallel harness.  The parallel path lets in-flight
cells finish and store their results, then raises the error of the
*earliest* failed cell — so a resume loses no completed work and the
raised error does not depend on worker timing.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, TextIO

from repro.core.results import SimulationResult
from repro.faults.errors import SimulationError
from repro.parallel import progress as _progress
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell, execute_cell, rebuild_error
from repro.parallel.progress import SweepProgress
from repro.parallel.supervisor import (
    DEFAULT_RESTART_BUDGET,
    PoolEnvironmentFailure,
    SupervisedPool,
)


def default_jobs() -> int:
    """The CLI default worker count: every core the host offers."""
    return os.cpu_count() or 1


class SweepExecutor:
    """Resolves sweep cells from its memo, the result cache, or simulation."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retries: int = 0,
        timeout: Optional[float] = None,
        progress_stream: Optional[TextIO] = None,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        chaos: Optional[Callable[[SupervisedPool], None]] = None,
    ):
        self.jobs = max(1, jobs if jobs is not None else 1)
        self.cache = cache
        self.retries = max(0, retries)
        self.timeout = timeout
        self.progress_stream = progress_stream
        # Supervision knobs (parallel path only): worker restarts per
        # cell and the chaos harness's fault-injection hook.
        self.restart_budget = restart_budget
        self.chaos = chaos
        #: Every result this executor resolved, by cache key.
        self._resolved: Dict[str, SimulationResult] = {}

    def _lookup(self, key: str) -> Optional[SimulationResult]:
        found = self._resolved.get(key)
        if found is None and self.cache is not None:
            found = self.cache.get(key)
            if found is not None:
                self._resolved[key] = found
        return found

    # -- execution -----------------------------------------------------

    def run(self, cells: Sequence[Cell]) -> List[SimulationResult]:
        """Resolve every cell; results align with ``cells`` by index."""
        progress = SweepProgress(
            total=len(cells), jobs=self.jobs, stream=self.progress_stream
        )
        keys = [cache_key(cell) for cell in cells]
        results: List[Optional[SimulationResult]] = [None] * len(cells)
        # The first cell of each key left to simulate; later cells with
        # that key take its result once it is resolved.
        first: Dict[str, int] = {}
        for index, key in enumerate(keys):
            if key in first:
                continue
            found = self._lookup(key)
            if found is None:
                first[key] = index
                continue
            results[index] = found
            progress.cell_done(
                _progress.SOURCE_CACHE, label=cells[index].describe()
            )
        pending = list(first.values())
        if pending:
            if self.jobs <= 1 or len(pending) == 1:
                self._run_serial(cells, keys, pending, results, progress)
            else:
                self._run_parallel(cells, keys, pending, results, progress)
        for index, result in enumerate(results):
            if result is None:
                results[index] = self._resolved[keys[index]]
                progress.cell_done(
                    _progress.SOURCE_CACHE, label=cells[index].describe()
                )
        return results  # type: ignore[return-value]

    def _finish_ok(
        self,
        cell: Cell,
        key: str,
        result: SimulationResult,
        seconds: float,
        progress: SweepProgress,
    ) -> None:
        self._resolved[key] = result
        if self.cache is not None:
            self.cache.put(key, result)
        progress.cell_done(
            _progress.SOURCE_SIMULATED,
            cell_seconds=seconds,
            label=cell.describe(),
        )

    def _run_serial(
        self,
        cells: Sequence[Cell],
        keys: Sequence[str],
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
            except SimulationError:
                progress.cell_done(
                    _progress.SOURCE_FAILED,
                    cell_seconds=time.monotonic() - started,
                    label=cell.describe(),
                )
                raise
            results[index] = result
            self._finish_ok(
                cell, keys[index], result, time.monotonic() - started, progress
            )

    def _run_parallel(
        self,
        cells: Sequence[Cell],
        keys: Sequence[str],
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
                self._finish_ok(cell, keys[index], payload, seconds, progress)
                return
            type_name, message, diagnostics, _attempts = payload
            errors[index] = rebuild_error(type_name, message, diagnostics)
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
            self._run_serial(cells, keys, remaining, results, progress)
        if errors:
            raise errors[min(errors)]
