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
:func:`repro.faults.watchdog.wall_clock_guard`, and, on a pool worker,
a heartbeat relayed from the issue loop.  :func:`simulate_cell` runs one
attempt.  A cell is never resumed: a worker that dies re-runs its cell
from the start, and purity makes the re-run byte-identical.
"""

from __future__ import annotations

import dataclasses as _dc
import itertools
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


#: Issue-loop polls between heartbeat relays: the poll hook fires every
#: iteration, and the heartbeat is cheap but not free.
_HEARTBEAT_MASK = 0xFF


def simulate_cell(
    cell: Cell,
    attempt: int = 0,
    *,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SimulationResult:
    """Simulate one attempt of ``cell`` (the monkeypatchable seam).

    ``heartbeat``, when given, is called from the issue loop's poll
    hook every 256 iterations: a supervising parent can then tell a
    slow worker from a hung one.
    """
    from repro.api import _simulate

    poll = None
    if heartbeat is not None:
        polls = itertools.count(1)

        def poll() -> None:
            if not next(polls) & _HEARTBEAT_MASK:
                heartbeat()

    return _simulate(
        reseeded(cell.config, attempt),
        cell.workload,
        cell.form,
        cell.miss_scale,
        poll=poll,
    )


def execute_cell(
    cell: Cell,
    retries: int = 0,
    timeout: Optional[float] = None,
    backoff: Optional[Backoff] = None,
    *,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SimulationResult:
    """Run ``cell`` with retries and a per-attempt wall-clock bound.

    Failed attempts back off with decorrelated jitter before retrying
    (``backoff``; the default :func:`~repro.parallel.backoff.for_cell_retries`
    policy is seeded from the cell's fault seed so sibling cells
    de-correlate).  Raises the final :class:`SimulationError` — with
    series/workload/attempt context attached — once every attempt has
    failed; any non-structured exception propagates immediately.
    ``heartbeat`` is relayed to every attempt (see :func:`simulate_cell`).
    """
    relay: Dict[str, Any] = {}
    if heartbeat is not None:
        relay["heartbeat"] = heartbeat
    attempts = retries + 1
    if backoff is None and retries > 0:
        backoff = for_cell_retries(seed=cell.config.faults.seed)
    last_error: Optional[SimulationError] = None
    for attempt in range(attempts):
        try:
            with wall_clock_guard(timeout or 0.0, label=cell.describe()):
                return simulate_cell(cell, attempt, **relay)
        except SimulationError as exc:
            last_error = exc
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
    """The cell's label-qualified identity, for journals and diagnostics.

    ``label|workload|cfg:<hash>|form|miss_scale``: the config enters
    through its canonical hash (:func:`repro.core.config.config_hash`),
    which covers every field and ignores field order, and the label
    keeps two series running one machine apart in failure reports.  The
    dist cell journal keys cells by it (its goldens pin the format), and
    error diagnostics carry it as ``cell_key``.  Sweeps resolve cells by
    content instead (:func:`repro.parallel.cache.cache_key`).
    """
    return "|".join(
        [
            cell.label,
            cell.workload,
            "cfg:" + config_hash(cell.config)[:24],
            cell.form if cell.form is not None else "-",
            repr(cell.miss_scale) if cell.miss_scale is not None else "-",
        ]
    )


def error_payload(
    exc: SimulationError, cell: Cell, retries: int
) -> Tuple[str, str, Dict[str, Any], int]:
    """The picklable ``(type, message, diagnostics, attempts)`` form of a
    structured worker failure.

    The diagnostics gain the original traceback string and the cell's
    :func:`key_of` (which embeds the config hash) before crossing the
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
