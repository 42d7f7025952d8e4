"""The coordinator's write-ahead cell journal.

Same discipline as :class:`repro.serve.journal.JobJournal`, through the
same shared lease state machine (:class:`repro.serve.leases.LeaseJournal`):
every cell transition is one fsync'd JSON line, the durable record
leads the in-memory state, and a SIGKILL'd coordinator replays to
exactly where it died — sharded cells come back queued, leased cells
come back interrupted (their workers may still push, and fencing
decides), terminal cells keep their results verbatim.

This module names the on-disk vocabulary and the cell entry.  Event
vocabulary (``ev``): ``shard`` (a cell enters the pool, wire form under
``cell``), ``lease`` (with the ``worker`` holding it), ``requeue``,
``done`` (the *exact* canonical result string, so reassembly after
replay is byte-identical to the push, plus its ``digest`` and the
pushing ``worker``), ``fail``; every event names its cell by ``key``.
Compaction writes cells in the order they were first sharded, so the
coordinator's submission order survives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.serve.leases import LeaseJournal, STATE_QUEUED, TERMINAL_STATES

__all__ = ["CellJournal", "CellState"]


@dataclass
class CellState:
    """Everything the coordinator knows about one sharded cell."""

    key: str
    wire: Dict[str, Any]
    state: str = STATE_QUEUED
    attempts: int = 0
    #: The exact canonical result string a worker pushed (byte-identity
    #: is preserved through the journal, not re-derived from a parse).
    result: Optional[str] = None
    digest: Optional[str] = None
    error: Optional[Dict[str, Any]] = None
    #: Monotonic instant before which the cell must not be re-leased
    #: (expiry backoff).  Never persisted — a restarted coordinator
    #: re-leases immediately, exactly like the job dispatcher.
    not_before: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def public_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.digest is not None:
            out["digest"] = self.digest
        return out


class CellJournal(LeaseJournal):
    """Append-only, fsync'd JSONL record of every cell transition."""

    LABEL = "cell journal"
    ENTRY = "shard"
    KEY = "key"
    DONE_FIELDS = ("digest",)

    @staticmethod
    def entry_fields(entry: CellState) -> Dict[str, Any]:
        return {"key": entry.key, "cell": entry.wire}

    @staticmethod
    def entry_of(event: Dict[str, Any]) -> Optional[CellState]:
        key = event.get("key")
        if key is None:
            return None
        return CellState(key=key, wire=event.get("cell") or {})
