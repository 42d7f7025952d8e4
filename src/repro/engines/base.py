"""The `SimEngine` protocol: what a simulator core provides.

An engine owns the *issue loop* of one shader core — the strategy that
decides how simulated time advances — while the core object keeps all
architectural state (warps, TLB, caches, walkers, counters).  A run is
one call: :meth:`SimEngine.run` starts at cycle 0 and returns when the
core's work is done.
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

    def run(self, poll=None) -> int:
        """Run the core's issue loop to completion; return the cycle
        the run ends at (the later of the clock and the last warp's
        completion).  ``poll``, when given, is called with no arguments
        at the top of every iteration."""
        raise NotImplementedError
