"""Versioned, deterministic mid-run snapshot/restore of simulator state.

Every stateful component in the simulator tree implements the state
protocol::

    state = component.state_dict()   # JSON-safe nested dict
    component.load_state(state)      # restores exactly that state

``Simulator.state_dict()`` composes the whole tree — TLBs and victim
arrays, page-table walkers, MSHRs, L1/L2/DRAM, warp schedulers
(including the CCWS/TA-CCWS/TCWS score tables), the TBC common-page
matrix, page table and physical memory, fault-model pending state, RNG
streams, interval samplers, the trace ring buffer, and ``CoreStats`` —
at a *safe point* (the top of a shader core's issue loop).  Restoring
that dict into a freshly constructed ``Simulator`` and finishing the
run yields a ``SimulationResult`` byte-identical to the uninterrupted
run; ``tests/snapshot/`` pins this for fig02 and fig11 cells with
tracing and profiling both on and off.

:mod:`repro.snapshot.store` persists snapshots atomically
(write + fsync + rename) inside a versioned envelope and tolerates
truncated or corrupt files on read; :mod:`repro.snapshot.runner` holds
:class:`SnapshotPolicy`, which writes periodic snapshots from the
safe-point ``poll`` hook.  :func:`repro.parallel.cells.simulate_cell`
installs one when given a snapshot path, so a SIGKILLed worker can
restart mid-cell.
"""

from repro.snapshot.store import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotIncompatible,
    read_snapshot,
    snapshot_envelope,
    try_read_snapshot,
    write_snapshot,
)
from repro.snapshot.runner import SnapshotPolicy

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotIncompatible",
    "SnapshotPolicy",
    "read_snapshot",
    "snapshot_envelope",
    "try_read_snapshot",
    "write_snapshot",
]
