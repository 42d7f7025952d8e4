"""The write-ahead job journal: the server's only source of truth.

Every job state transition is one JSON line, fsync'd before the server
acts on it, so a SIGKILL at any instant leaves a journal whose replay
reconstructs the server: submitted jobs come back ``queued``, jobs
mid-lease come back interrupted (the server re-queues them — their
lease died with the process), terminal jobs stay terminal with their
result, a torn final line is dropped with a :class:`RuntimeWarning`,
and a duplicate ``submit`` (a client retrying a lost response across a
restart) replays to the one existing job.

Replay, compaction, the appenders and :meth:`JobJournal.terminal_counts`
(the chaos campaign's exactly-once oracle) are the shared lease state
machine, :class:`repro.serve.leases.LeaseJournal`; this class only
names the job journal's on-disk vocabulary.  Event vocabulary (the
``ev`` field): ``submit`` (the job's durable fields under ``job``),
``lease``, ``requeue``, ``done`` (``result``, plus ``elapsed_s``),
``fail``; every event but ``submit`` names its job by ``id``.
Compaction writes jobs in the order they were first journaled.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.serve.jobs import Job
from repro.serve.leases import LeaseJournal

__all__ = ["JobJournal"]


class JobJournal(LeaseJournal):
    """Append-only, fsync'd JSONL record of every job transition."""

    LABEL = "job journal"
    ENTRY = "submit"
    KEY = "id"

    @staticmethod
    def entry_fields(entry: Job) -> Dict[str, Any]:
        return {"job": entry.journal_dict()}

    @staticmethod
    def entry_of(event: Dict[str, Any]) -> Optional[Job]:
        payload = event.get("job") or {}
        if payload.get("id") is None:
            return None
        return Job.from_journal_dict(payload)
