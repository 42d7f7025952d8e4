"""The structured error hierarchy of the fault subsystem.

Every abnormal termination the simulator can detect raises a subclass of
:class:`SimulationError`, carrying enough structured state (``diagnostics``)
for the harness to log, retry, or skip the offending sweep cell instead of
crashing or — worse — spinning forever.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SimulationError(RuntimeError):
    """Base class for structured simulator failures.

    Attributes
    ----------
    diagnostics:
        Free-form machine-readable context (core id, cycle, warp states,
        counter snapshot...) attached at raise time and enriched as the
        error propagates outward (the :class:`repro.core.simulator.Simulator`
        adds workload and configuration labels).
    """

    def __init__(self, message: str, diagnostics: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.diagnostics: Dict[str, Any] = dict(diagnostics or {})

    def add_context(self, **context: Any) -> "SimulationError":
        """Merge extra diagnostic keys (without overwriting existing ones)."""
        for key, value in context.items():
            self.diagnostics.setdefault(key, value)
        return self


class SimulationHang(SimulationError):
    """The forward-progress watchdog detected a deadlock/livelock.

    Raised instead of spinning when no instruction retires for
    ``FaultConfig.watchdog_cycles`` simulated cycles; ``diagnostics``
    holds the watchdog's state dump (also emitted as a ``hang_dump``
    trace event when a tracer is installed).
    """


class PTWError(SimulationError):
    """A page-walk load failed permanently.

    Raised when an injected transient walk error persists past
    ``FaultConfig.ptw_max_retries`` retries.
    """


class WalkTimeout(SimulationError):
    """A page walk exceeded ``FaultConfig.walk_timeout_cycles`` twice.

    The walker retries a timed-out walk once from scratch; a second
    timeout is treated as a wedged walk and surfaces as this error.
    """


class CellTimeout(SimulationError):
    """A sweep cell exceeded its wall-clock budget.

    The cycle-based watchdog (:class:`SimulationHang`) catches livelocks
    whose clock still advances; this is its wall-clock twin for cells
    whose host-side execution wedges entirely (pathological configs,
    runaway traces).  Raised by
    :func:`repro.faults.watchdog.wall_clock_guard` and handled by the
    sweep machinery exactly like any structured simulator failure:
    retried with a perturbed seed, then raised with the cell named.
    """


class WorkerCrashed(SimulationError):
    """A supervised sweep worker died and exhausted its restart budget.

    When a supervised pool worker (:mod:`repro.parallel.supervisor`)
    is killed, OOMed or hung while running a cell, the cell re-runs
    from the start on another worker, a bounded number of times; when
    the budget runs out, the *cell* fails with this error — the sweep
    itself continues, every other cell finishes (and is cached, when
    the sweep has a cache), and the error is raised like any structured
    simulator error.
    ``diagnostics`` carries the cell key, the number of workers the cell
    was started on (``spawns``), and the last observed exit code.
    """


class InvariantViolation(SimulationError):
    """A post-run counter invariant does not hold.

    The simulator cross-checks cheap accounting identities (TLB hits +
    misses == lookups, memory instructions <= instructions, no negative
    counters) after every core run; a violation indicates a simulator
    bug rather than a modeled fault.
    """
