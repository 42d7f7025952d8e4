"""The `SimEngine` protocol: what a simulator core provides.

An engine owns the *issue loop* of one shader core — the strategy that
decides how simulated time advances — while the core object keeps all
architectural state (warps, TLB, caches, walkers, counters).  Snapshots
are therefore the core's own ``state_dict`` / ``load_state``: one taken
under either engine restores under the other, and every safe point
(issue-loop top, where ``poll`` runs) is a valid snapshot point.
"""

from __future__ import annotations


class SimEngine:
    """Base class for simulator cores.

    Parameters
    ----------
    core:
        The :class:`repro.gpu.shader_core.ShaderCore` whose work this
        engine executes.  The engine reads and writes the core's state;
        it holds no simulated state of its own.
    """

    #: Engine name (``GPUConfig.engine``); subclasses override.
    name = "base"

    def __init__(self, core):
        self.core = core

    def run(self, poll=None):
        """Execute the core's work to completion; return its CoreStats."""
        raise NotImplementedError

    def step_to(self, cycle: int, poll=None) -> int:
        """Advance the core to the first safe point at or past ``cycle``.

        Returns the core's clock.  Does not finalize statistics; call
        :meth:`run` afterwards to finish the remaining work.
        """
        raise NotImplementedError
