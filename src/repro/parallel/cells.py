"""Sweep cells: the picklable unit of work, and the one way to run it.

A :class:`Cell` is one fully-materialized (config, workload) point of a
sweep matrix — unlike the zero-argument config *factories* the figure
drivers pass around (closures do not pickle), a cell carries the frozen
:class:`GPUConfig` itself, so the parent can ship it to a spawned worker
unchanged.  Determinism hangs on this: a cell is self-contained (its
config embeds the fault seed), so its result is a pure function of the
cell and never of which worker ran it or in what order.

:func:`execute_cell` is the single execution path of every simulated
cell — figure sweeps, served jobs and dist workers (all through
:class:`repro.parallel.pool.SweepExecutor`), serially or on the
supervised pool's workers: bounded retries with seed perturbation on
structured simulator errors, each attempt under a wall-clock
:func:`repro.faults.watchdog.wall_clock_guard`, and, when given a
snapshot path, mid-cell snapshots a restarted worker resumes from.
:func:`simulate_cell` runs one attempt.
"""

from __future__ import annotations

import contextlib
import dataclasses as _dc
import functools
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.config import GPUConfig, config_hash
from repro.core.results import SimulationResult
from repro.faults import errors as _errors
from repro.faults.errors import SimulationError
from repro.faults.watchdog import wall_clock_guard
from repro.parallel.backoff import Backoff, for_cell_retries


@dataclass(frozen=True)
class Cell:
    """One (config, workload) sweep point, ready to execute anywhere."""

    label: str
    workload: str
    config: GPUConfig
    form: Optional[str] = None
    miss_scale: float = 1.0

    def describe(self) -> str:
        """Short human-readable identity for progress lines and errors."""
        return f"{self.label}/{self.workload}"


def reseeded(config: GPUConfig, attempt: int) -> GPUConfig:
    """Perturb the fault seed for retry ``attempt`` (0 = as configured).

    Deterministic injection would otherwise replay the identical
    failure on every retry.
    """
    if attempt == 0 or not config.faults.enabled:
        return config
    faults = _dc.replace(config.faults, seed=config.faults.seed + attempt)
    return _dc.replace(config, faults=faults)


#: Default mid-cell snapshot period, in simulated cycles of the
#: executing core.
DEFAULT_SNAPSHOT_CYCLES = 50_000


def simulate_cell(
    cell: Cell,
    attempt: int = 0,
    *,
    snapshot_path: Optional[str] = None,
    snapshot_every: int = DEFAULT_SNAPSHOT_CYCLES,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SimulationResult:
    """Simulate one attempt of ``cell`` (the monkeypatchable seam).

    With ``snapshot_path`` the run is resumable: it restarts from the
    snapshot there when that one is of exactly this cell and attempt
    (see :meth:`repro.snapshot.runner.SnapshotPolicy.bind`), writes a
    new one every ``snapshot_every`` simulated cycles, relays
    ``heartbeat`` from the safe-point hook, and leaves its last snapshot
    on disk.  A resumed run's result is byte-identical to an
    uninterrupted one.
    """
    from repro.api import _simulate

    config = reseeded(cell.config, attempt)
    attach = None
    if snapshot_path is not None:
        # Imported here: repro.snapshot.runner imports this module.
        from repro.snapshot import SnapshotPolicy

        policy = SnapshotPolicy(
            snapshot_path, every_cycles=snapshot_every, heartbeat=heartbeat
        )
        attach = functools.partial(
            policy.bind,
            config_hash=config_hash(config),
            workload=cell.workload,
            form=cell.form,
            miss_scale=cell.miss_scale,
            attempt=attempt,
        )
    return _simulate(
        config, cell.workload, cell.form, cell.miss_scale, attach=attach
    )


def execute_cell(
    cell: Cell,
    retries: int = 0,
    timeout: Optional[float] = None,
    backoff: Optional[Backoff] = None,
    *,
    snapshot_path: Optional[str] = None,
    snapshot_every: int = DEFAULT_SNAPSHOT_CYCLES,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SimulationResult:
    """Run ``cell`` with retries and a per-attempt wall-clock bound.

    Failed attempts back off with decorrelated jitter before retrying
    (``backoff``; the default :func:`~repro.parallel.backoff.for_cell_retries`
    policy is seeded from the cell's fault seed so sibling cells
    de-correlate).  Raises the final :class:`SimulationError` — with
    series/workload/attempt context attached — once every attempt has
    failed; any non-structured exception propagates immediately.

    With ``snapshot_path`` every attempt runs resumably (see
    :func:`simulate_cell`; the supervised pool's restart path), and the
    snapshot is removed when the attempt ends: a retry reseeds the fault
    config, so it could never resume the previous attempt's snapshot.
    """
    snapshot: Dict[str, Any] = {}
    if snapshot_path is not None:
        snapshot = dict(
            snapshot_path=snapshot_path,
            snapshot_every=snapshot_every,
            heartbeat=heartbeat,
        )
    attempts = retries + 1
    if backoff is None and retries > 0:
        backoff = for_cell_retries(seed=cell.config.faults.seed)
    last_error: Optional[SimulationError] = None
    for attempt in range(attempts):
        try:
            with wall_clock_guard(timeout or 0.0, label=cell.describe()):
                return simulate_cell(cell, attempt, **snapshot)
        except SimulationError as exc:
            last_error = exc
        finally:
            if snapshot_path is not None:
                with contextlib.suppress(OSError):
                    os.remove(snapshot_path)
        if attempt + 1 < attempts and backoff is not None:
            backoff.sleep()
    assert last_error is not None
    last_error.add_context(
        series=cell.label, workload=cell.workload, attempts=attempts
    )
    raise last_error


# -- worker-process protocol ------------------------------------------
#
# Structured errors do not survive pickling intact (their diagnostics
# ride on an attribute, not on BaseException.args), so workers never let
# exceptions cross the pool: every outcome is an explicit tuple the
# parent folds back into results or reconstructed errors.

#: Error classes a worker may report, by name (the pickle-safe channel).
_ERROR_TYPES = {
    name: getattr(_errors, name)
    for name in (
        "SimulationError",
        "SimulationHang",
        "PTWError",
        "WalkTimeout",
        "CellTimeout",
        "InvariantViolation",
        "WorkerCrashed",
    )
}


def key_of(cell: Cell) -> str:
    """The cell's checkpoint identity (label, workload, config hash)."""
    # Imported here: repro.harness imports this package (via
    # experiment), and spawned workers import repro.parallel first.
    from repro.harness.checkpoint import cell_key

    return cell_key(
        cell.label, cell.workload, cell.config, cell.form, cell.miss_scale
    )


def error_payload(
    exc: SimulationError, cell: Cell, retries: int
) -> Tuple[str, str, Dict[str, Any], int]:
    """The picklable ``(type, message, diagnostics, attempts)`` form of a
    structured worker failure.

    The diagnostics gain the original traceback string and the cell's
    checkpoint key (which embeds the config hash) before crossing the
    process boundary, so an error rebuilt in the parent still names the
    worker-side raise site and the exact cell that poisoned the sweep.
    """
    import traceback

    diagnostics: Dict[str, Any] = dict(exc.diagnostics)
    diagnostics.setdefault("worker_traceback", traceback.format_exc())
    diagnostics.setdefault("cell_key", key_of(cell))
    attempts = int(diagnostics.get("attempts", retries + 1))
    return (type(exc).__name__, str(exc), diagnostics, attempts)


def rebuild_error(
    type_name: str, message: str, diagnostics: Dict[str, Any]
) -> SimulationError:
    """Reconstruct a worker-reported error in the parent process."""
    error_cls = _ERROR_TYPES.get(type_name, SimulationError)
    return error_cls(message, diagnostics=diagnostics)
