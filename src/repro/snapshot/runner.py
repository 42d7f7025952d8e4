"""The safe-point snapshot policy of a resumable sweep cell.

:class:`SnapshotPolicy` is the bridge between the simulator's safe-point
``poll`` hook and the on-disk store: every ``every_cycles`` simulated
cycles it serializes ``Simulator.state_dict()`` into the versioned
envelope and persists it atomically, and it relays a rate-limited
heartbeat so a supervising parent can tell a slow worker from a dead
one.  :func:`repro.parallel.cells.simulate_cell` installs one whenever
it is given a snapshot path; a run resumed from any snapshot finishes
with a result byte-identical to the uninterrupted run.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Optional

from repro.core.simulator import Simulator
from repro.parallel.cells import DEFAULT_SNAPSHOT_CYCLES
from repro.snapshot.store import (
    SnapshotIncompatible,
    read_snapshot,
    snapshot_envelope,
    write_snapshot,
)

__all__ = ["SnapshotPolicy"]

#: Polls between heartbeat relays (the poll hook fires every issue-loop
#: iteration; the heartbeat itself is cheap but not free).
_HEARTBEAT_MASK = 0xFF


class SnapshotPolicy:
    """Writes periodic snapshots (and heartbeats) from the poll hook.

    Parameters
    ----------
    path:
        Snapshot file location (atomically replaced on every write).
    every_cycles:
        Simulated cycles of the *currently executing core* between
        snapshots.  Core clocks restart from zero core to core, so the
        countdown re-arms when execution moves to the next core.
    heartbeat:
        Optional zero-argument callable relayed every ~256 polls (and
        before every snapshot write) — the supervised pool points this
        at its heartbeat file.
    """

    def __init__(
        self,
        path: str,
        *,
        every_cycles: int = DEFAULT_SNAPSHOT_CYCLES,
        heartbeat: Optional[Callable[[], None]] = None,
    ):
        if every_cycles <= 0:
            raise ValueError("snapshot interval must be positive cycles")
        self.path = path
        self.every_cycles = every_cycles
        self.heartbeat = heartbeat
        self.snapshots_written = 0
        self._sim: Optional[Simulator] = None
        self._meta: dict = {}
        self._core_id: Optional[int] = None
        self._last_cycle = 0
        self._polls = 0

    def bind(
        self,
        simulator: Simulator,
        *,
        config_hash: str,
        workload: str,
        form: Optional[str],
        miss_scale: float,
        attempt: int,
    ) -> "SnapshotPolicy":
        """Attach the simulator whose state this policy persists.

        A snapshot already at ``path`` is first restored into
        ``simulator`` when it is of exactly this cell and attempt.  An
        absent or unreadable one means a fresh run, and a stale one (an
        earlier attempt's, or an abandoned cell's that once shared the
        path) is discarded: it is never resumed and never fails the
        run.  Returns the policy itself, the run's ``poll`` hook.
        """
        try:
            envelope = read_snapshot(
                self.path,
                config_hash=config_hash,
                workload=workload,
                attempt=attempt,
            )
        except SnapshotIncompatible:
            envelope = None
            with contextlib.suppress(OSError):
                os.remove(self.path)
        if envelope is not None:
            simulator.load_state(envelope["state"])
        self._sim = simulator
        self._meta = {
            "config_hash": config_hash,
            "workload": workload,
            "form": form,
            "miss_scale": miss_scale,
            "attempt": attempt,
        }
        return self

    def __call__(self, core) -> None:
        """The safe-point hook (see :meth:`ShaderCore.run`)."""
        self._polls += 1
        if self.heartbeat is not None and not (self._polls & _HEARTBEAT_MASK):
            self.heartbeat()
        if core.core_id != self._core_id:
            self._core_id = core.core_id
            self._last_cycle = core._now
            return
        if core._now - self._last_cycle < self.every_cycles:
            return
        self._last_cycle = core._now
        self.save(cycle=core._now)

    def save(self, cycle: int) -> None:
        """Snapshot the bound simulator right now."""
        if self._sim is None:
            raise RuntimeError("SnapshotPolicy.save before bind()")
        if self.heartbeat is not None:
            self.heartbeat()
        envelope = snapshot_envelope(cycle=cycle, state=self._sim.state_dict(), **self._meta)
        write_snapshot(self.path, envelope)
        self.snapshots_written += 1
