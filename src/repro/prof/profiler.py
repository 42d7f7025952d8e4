"""The wall-clock phase profiler: module-level fast path + stack frames.

Hot-path contract (the :mod:`repro.obs.tracer` pattern)
-------------------------------------------------------
Instrumented components guard every probe with the module flag::

    from repro.prof import profiler as _prof
    ...
    if _prof.ENABLED:
        _prof.begin(_prof.PHASE_TLB)
    ... the work ...
    if _prof.ENABLED:
        _prof.end()

With no profiler installed ``ENABLED`` is False, so the disabled cost is
one module-attribute load and one branch per site — no objects, no
clock reads.  Profiling reads the monotonic clock and mutates only its
own frame stack, never simulated state, so simulation results are
byte-identical with profiling on or off
(``tests/obs/test_overhead.py`` asserts this against golden files).

Attribution
-----------
Phases nest: a page walk started under a TLB miss runs with the
``ptw_walk`` frame on top of ``tlb_lookup``.  Each completed frame adds
its *inclusive* duration to the phase's ``total_ns`` and its *exclusive*
duration (inclusive minus time spent in child frames) to ``self_ns``, so
the self-times of all phases partition the profiled wall time with no
double counting.  ``total_ns`` does double-count when the same phase
re-enters itself recursively; the built-in phases never self-nest.

Exceptions
----------
A simulator error raised between ``begin`` and ``end`` leaves frames on
the stack.  :meth:`PhaseProfiler.end_through` (called from the
simulator's ``finally``) unwinds to the enclosing run marker, so a
failed cell cannot skew the attribution of later cells.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, List, Optional

from repro.obs.switch import ModuleSwitch

#: Phase names used by the built-in instrumentation sites.
PHASE_SIMULATE = "simulate"          # one whole Simulator.run()
PHASE_TLB = "tlb_lookup"             # SetAssociativeTLB.lookup
PHASE_PTW = "ptw_walk"               # serial walker / pool walks
PHASE_PTW_SCHED = "ptw_schedule"     # the coalescing scheduled walker
PHASE_CACHE = "cache_l1"             # CoreMemory.access (L1 + MSHRs)
PHASE_L2 = "cache_l2"                # SharedMemory.access_line / walk_load
PHASE_DRAM = "dram"                  # DRAM.access
PHASE_COALESCE = "coalescer"         # intra-warp address coalescing
PHASE_WARP_SCHED = "warp_scheduler"  # scheduler.select
PHASE_EVENT_SKIP = "event_skip"      # event engine dead-time skip bookkeeping
PHASE_BUILD = "workload_build"       # Workload.build on a memo miss
PHASE_TBC = "tbc_compact"            # TBC region warp formation

#: Every phase the built-in instrumentation emits.
PHASES = (
    PHASE_SIMULATE,
    PHASE_TLB,
    PHASE_PTW,
    PHASE_PTW_SCHED,
    PHASE_CACHE,
    PHASE_L2,
    PHASE_DRAM,
    PHASE_COALESCE,
    PHASE_WARP_SCHED,
    PHASE_EVENT_SKIP,
    PHASE_BUILD,
    PHASE_TBC,
)

#: Fast-path flag: True exactly while a profiler is installed.
ENABLED = False

_ACTIVE: Optional["PhaseProfiler"] = None

_SWITCH = ModuleSwitch(__name__)


class PhaseRecord:
    """Accumulated cost of one phase."""

    __slots__ = ("calls", "self_ns", "total_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0

    def to_dict(self) -> Dict[str, float]:
        """JSON form (seconds as floats, the BENCH file unit)."""
        return {
            "calls": self.calls,
            "self_s": self.self_ns / 1e9,
            "total_s": self.total_ns / 1e9,
        }


class PhaseProfiler:
    """Attributes host wall time to nested simulator phases.

    Parameters
    ----------
    clock:
        Nanosecond monotonic clock (injectable for deterministic tests).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        # Stack frames: [phase, start_ns, child_ns].
        self._stack: List[List] = []
        self.records: Dict[str, PhaseRecord] = {}
        #: Free-form tallies (simulated cycles, cells run, ...).
        self.counts: Dict[str, int] = {}

    # -- frame stack ---------------------------------------------------

    def begin(self, phase: str) -> None:
        """Open a frame for ``phase``; pauses the parent's self-time."""
        self._stack.append([phase, self._clock(), 0])

    def end(self) -> None:
        """Close the innermost frame, attributing its time."""
        frame = self._stack.pop()
        now = self._clock()
        total = now - frame[1]
        record = self.records.get(frame[0])
        if record is None:
            record = self.records[frame[0]] = PhaseRecord()
        record.calls += 1
        record.total_ns += total
        record.self_ns += total - frame[2]
        if self._stack:
            self._stack[-1][2] += total
        return None

    def end_through(self, phase: str) -> None:
        """Unwind frames until one named ``phase`` has been closed.

        Error-path companion to :meth:`begin`: closes abandoned child
        frames (an exception mid-walk leaves them open) and then the
        marker frame itself.  No-op on an empty stack.
        """
        while self._stack:
            name = self._stack[-1][0]
            self.end()
            if name == phase:
                return

    @property
    def depth(self) -> int:
        """Open frames (0 when the stack is balanced)."""
        return len(self._stack)

    # -- tallies -------------------------------------------------------

    def add(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the free-form tally ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    # -- results -------------------------------------------------------

    def total_profiled_ns(self) -> int:
        """Self-time sum over all phases (partitions profiled wall time)."""
        return sum(record.self_ns for record in self.records.values())

    def to_dict(self) -> Dict[str, Dict]:
        """JSON-safe snapshot: ``{"phases": ..., "counts": ...}``."""
        return {
            "phases": {
                name: self.records[name].to_dict()
                for name in sorted(self.records)
            },
            "counts": dict(sorted(self.counts.items())),
        }


def install(profiler: PhaseProfiler) -> None:
    """Make ``profiler`` active and raise the fast-path flag."""
    _SWITCH.install(profiler)


def uninstall() -> None:
    """Deactivate profiling; the fast path returns to a single branch."""
    _SWITCH.uninstall()


def active() -> Optional[PhaseProfiler]:
    """The installed profiler, or None."""
    return _ACTIVE


# -- module-level forwarding (what instrumentation sites call) ---------


def begin(phase: str) -> None:
    """Open a frame on the active profiler (no-op when none is)."""
    profiler = _ACTIVE
    if profiler is not None:
        profiler.begin(phase)


def end() -> None:
    """Close the innermost frame on the active profiler."""
    profiler = _ACTIVE
    if profiler is not None:
        profiler.end()


def end_through(phase: str) -> None:
    """Unwind the active profiler's stack through ``phase``."""
    profiler = _ACTIVE
    if profiler is not None:
        profiler.end_through(phase)


def add(name: str, value: int = 1) -> None:
    """Add to a tally on the active profiler."""
    profiler = _ACTIVE
    if profiler is not None:
        profiler.add(name, value)


# -- user-facing sugar -------------------------------------------------


@contextlib.contextmanager
def profile(profiler: Optional[PhaseProfiler] = None):
    """Install a profiler for the ``with`` body and yield it::

        with repro.prof.profile() as prof:
            simulate(config="augmented", workload="bfs")
        print(prof.to_dict())

    Restores the previously installed profiler (if any) on exit, so
    profiled sections nest safely.
    """
    if profiler is None:
        profiler = PhaseProfiler()
    previous = _ACTIVE
    install(profiler)
    try:
        yield profiler
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)


@contextlib.contextmanager
def phase(name: str):
    """Context manager attributing the ``with`` body to ``name``.

    For user code and coarse phases; the simulator's hot paths use the
    ``if ENABLED: begin/end`` pattern instead (no context-manager
    overhead when profiling is off).
    """
    if not ENABLED:
        yield
        return
    begin(name)
    try:
        yield
    finally:
        end()


def profiled(name: str):
    """Decorator form of :func:`phase`::

        @profiled("analysis")
        def summarize(results): ...
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return wrapper

    return decorate
