"""The lease state machine shared by served jobs and sharded cells.

A served job (:mod:`repro.serve.app`) and a sharded sweep cell
(:mod:`repro.dist.coordinator`) live the same life: it is **entered**
into a write-ahead journal, waits in a ready queue, is **leased** —
``(key, attempt, expiry)`` — to one executor, and ends **done** or
**failed**; a lease that expires, or an attempt that fails and may be
retried, **re-queues** it under decorrelated-jitter backoff
(:mod:`repro.parallel.backoff`) until its attempt budget is spent.
This module holds that machine once:

- :class:`LeaseTable` — the live grants.  The attempt number doubles
  as a fencing token: an executor presumed dead that finishes anyway
  presents a lease that is no longer current, and its late outcome is
  discarded, so an entry can never reach a terminal state twice.
- :class:`LeaseJournal` — the fsync'd JSONL journal (every append goes
  through :class:`repro.durable.WalFile`).  One ``_apply`` replays the
  five events (the entry event, ``lease``, ``requeue``, ``done``,
  ``fail``) at open, torn lines dropped with a warning by
  :func:`repro.durable.read_wal`; the same ``_apply`` keeps the open
  journal's state current after every append, and size-triggered
  compaction rewrites one entry event plus its latest transition (a
  terminal one carrying the entry's attempt count).
  :class:`repro.serve.journal.JobJournal` and
  :class:`repro.dist.journal.CellJournal` only name the on-disk
  vocabulary (``submit``/``job``/``id`` against ``shard``/``cell``/
  ``key``).
- :class:`LeaseLedger` — every transition, each journaled before the
  in-memory state changes: recovery after a restart (what was mid-lease
  when the last process died re-queues first, since its lease died with
  that process), grant, renew, fenced commit, expiry, and
  requeue-or-fail under the attempt budget.  Its one ready queue is
  FIFO; a re-queued entry goes to the back.

The hosts keep what differs: HTTP routes, metric and log names,
executor threads, push verification, and the failure policy (a failed
job is terminal, a failed cell is retried).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable import WalFile, read_wal
from repro.parallel.backoff import Backoff

__all__ = [
    "Lease",
    "LeaseJournal",
    "LeaseLedger",
    "LeaseTable",
    "Replay",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "TERMINAL_STATES",
]

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"

#: States an entry never leaves.  The chaos campaigns assert every job
#: and cell reaches exactly one of these exactly once across restarts.
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED})


@dataclass(frozen=True)
class Lease:
    """One grant of an entry to one executor, valid until ``expires_at``."""

    job_id: str
    attempt: int
    expires_at: float  # monotonic seconds
    #: Who holds the grant (a dist worker id; None for the in-process
    #: executor).  Informational — fencing is by attempt, not owner.
    owner: Optional[str] = None


class LeaseTable:
    """Every live lease.

    Parameters
    ----------
    ttl:
        Default lease lifetime in seconds (``grant`` may override it).
        Executors of healthy entries either finish or renew within it;
        one that does neither is treated as dead.
    clock:
        Injectable monotonic clock (tests advance a fake one instead of
        sleeping).
    backoff_seed:
        Seed of the shared re-queue backoff sequence.
    """

    def __init__(
        self,
        ttl: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        backoff_seed: int = 0,
    ):
        self.ttl = ttl
        self.clock = clock
        self._live: Dict[str, Lease] = {}
        #: Per-entry backoff state: consecutive expirations of the same
        #: entry grow its re-queue delay; unrelated entries stay
        #: decorrelated via distinct seeds.
        self._backoffs: Dict[str, Backoff] = {}
        self._seed = backoff_seed
        self.expired_total = 0

    def grant(
        self,
        job_id: str,
        attempt: int,
        owner: Optional[str] = None,
        ttl: Optional[float] = None,
    ) -> Lease:
        """Lease ``job_id`` for ``ttl`` seconds (default: the table's)."""
        lease = Lease(
            job_id=job_id,
            attempt=attempt,
            expires_at=self.clock() + (self.ttl if ttl is None else ttl),
            owner=owner,
        )
        self._live[job_id] = lease
        return lease

    def renew(self, lease: Lease) -> Optional[Lease]:
        """Extend a still-current lease; None if it was fenced off."""
        if not self.is_current(lease):
            return None
        renewed = Lease(
            job_id=lease.job_id,
            attempt=lease.attempt,
            expires_at=self.clock() + self.ttl,
            owner=lease.owner,
        )
        self._live[lease.job_id] = renewed
        return renewed

    def current(self, job_id: str) -> Optional[Lease]:
        """The live grant for ``job_id``, if any (fencing lookups)."""
        return self._live.get(job_id)

    def is_current(self, lease: Lease) -> bool:
        """Whether ``lease`` is the live grant for its entry (fencing)."""
        live = self._live.get(lease.job_id)
        return live is not None and live.attempt == lease.attempt

    def release(self, lease: Lease) -> bool:
        """Commit-side release; False means the lease was fenced off."""
        if not self.is_current(lease):
            return False
        del self._live[lease.job_id]
        # The attempt ended on its own terms: its backoff streak is over.
        self._backoffs.pop(lease.job_id, None)
        return True

    def revoke(self, job_id: str) -> None:
        """Drop an entry's lease without a commit (expiry or drain).

        Backoff state survives revocation on purpose: consecutive
        expirations of the same entry must keep growing its re-queue
        delay (revoke runs *before* :meth:`requeue_delay` on expiry).
        """
        self._live.pop(job_id, None)

    def expired(self) -> List[Lease]:
        """Every live lease whose expiry has passed (not yet revoked)."""
        now = self.clock()
        return [l for l in self._live.values() if l.expires_at <= now]

    def requeue_delay(self, job_id: str) -> float:
        """The backoff delay before ``job_id`` may be leased again."""
        backoff = self._backoffs.get(job_id)
        if backoff is None:
            # Stable per-entry seed (not ``hash()``, which is salted per
            # process): the delay sequence is reproducible across
            # tests/chaos runs but differs between entries.
            digest = hashlib.sha256(job_id.encode("utf-8")).digest()
            seed = self._seed + int.from_bytes(digest[:2], "big")
            backoff = self._backoffs[job_id] = Backoff(seed=seed)
        self.expired_total += 1
        return backoff.next()

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_job_ids(self) -> List[str]:
        return list(self._live)

    def live_leases(self) -> List[Lease]:
        """The current grants (``GET /dist/status`` lists them)."""
        return list(self._live.values())


@dataclass
class Replay:
    """What a journal replay reconstructs.

    An entry (a :class:`repro.serve.jobs.Job` or a
    :class:`repro.dist.journal.CellState`) carries ``state``,
    ``attempts``, ``result``, ``error`` and ``not_before``.
    """

    #: key → entry, in the order the entries were journaled.
    entries: Dict[str, Any] = field(default_factory=dict)
    #: key → number of terminal (done/fail) events seen.  Exactly-once
    #: means every value here is 1.
    terminal_counts: Dict[str, int] = field(default_factory=dict)
    #: Keys that were mid-lease when the journal ended (the process
    #: died while they ran); :meth:`LeaseLedger.recover` re-queues them.
    interrupted: List[str] = field(default_factory=list)
    #: Entry events for a key already present (a client re-submitting
    #: across a lost response: content-derived keys make it the same
    #: entry).
    duplicates: int = 0
    #: Torn lines dropped during replay (each also warns).
    dropped_lines: int = 0


class LeaseJournal(WalFile):
    """Append-only, fsync'd JSONL record of every lease transition.

    Subclasses name the on-disk vocabulary: ``LABEL`` (for warnings),
    ``ENTRY`` (the event that enters an entry), ``KEY`` (the field that
    names the entry on every other event, and the entry's own attribute
    holding it), ``DONE_FIELDS`` (``done`` extras the entry keeps), and
    the two hooks below.

    ``max_bytes`` bounds the file's growth: once an append pushes past
    it, the live state (one entry event per entry plus its latest
    transition) is rewritten to a fresh segment atomically.  Superseded
    churn — expired-lease re-queues, duplicate entries — is what gets
    discarded; results, attempts of unfinished entries, and terminal
    states survive, and every terminal entry keeps exactly one terminal
    event.
    """

    LABEL = "journal"
    ENTRY = "entry"
    KEY = "key"
    DONE_FIELDS: Tuple[str, ...] = ()

    def __init__(self, path: str, max_bytes: Optional[int] = None):
        #: The replayed state, kept current by every append.
        self.replayed = self._load(path)
        super().__init__(path, max_bytes=max_bytes)

    # -- vocabulary ----------------------------------------------------

    @staticmethod
    def entry_fields(entry: Any) -> Dict[str, Any]:
        """The entry event's fields (besides ``ev``) for ``entry``."""
        raise NotImplementedError

    @staticmethod
    def entry_of(event: Dict[str, Any]) -> Optional[Any]:
        """The entry an entry event describes (None when it names none)."""
        raise NotImplementedError

    @classmethod
    def key_of(cls, entry: Any) -> str:
        return getattr(entry, cls.KEY)

    # -- replay --------------------------------------------------------

    @classmethod
    def _load(cls, path: str) -> Replay:
        replay = Replay()
        stats: Dict[str, int] = {}
        for event in read_wal(path, label=cls.LABEL, stats=stats):
            cls._apply(replay, event)
        replay.dropped_lines = stats.get("dropped", 0)
        replay.interrupted = [
            key
            for key, entry in replay.entries.items()
            if entry.state == STATE_RUNNING
        ]
        return replay

    @classmethod
    def _apply(
        cls, replay: Replay, event: Dict[str, Any], entry: Any = None
    ) -> None:
        kind = event.get("ev")
        if kind == cls.ENTRY:
            entry = entry if entry is not None else cls.entry_of(event)
            if entry is None:
                return
            key = cls.key_of(entry)
            if key in replay.entries:
                replay.duplicates += 1
            else:
                replay.entries[key] = entry
            return
        key = event.get(cls.KEY)
        entry = replay.entries.get(key)
        if entry is None:
            return  # a transition orphaned by a torn entry line
        if kind == "lease":
            entry.state = STATE_RUNNING
            entry.attempts = int(event.get("attempt", entry.attempts + 1))
        elif kind == "requeue":
            entry.state = STATE_QUEUED
            entry.attempts = int(event.get("attempt", entry.attempts))
        elif kind == "done":
            entry.state = STATE_DONE
            # Only a compacted line carries ``attempt``; elsewhere the
            # lease before it already counted the attempt.
            entry.attempts = int(event.get("attempt", entry.attempts))
            entry.result = event.get("result")
            for name in cls.DONE_FIELDS:
                setattr(entry, name, event.get(name))
            entry.error = None
        elif kind == "fail":
            entry.state = STATE_FAILED
            entry.attempts = int(event.get("attempt", entry.attempts))
            entry.error = {
                "type": event.get("error_type", "Error"),
                "message": event.get("error", ""),
                "attempts": event.get("attempts", entry.attempts),
            }
            if "diagnostics" in event:
                entry.error["diagnostics"] = event["diagnostics"]
        else:
            return
        if entry.state in TERMINAL_STATES:
            replay.terminal_counts[key] = replay.terminal_counts.get(key, 0) + 1

    @classmethod
    def terminal_counts(cls, path: str) -> Dict[str, int]:
        """Terminal events per key in the journal at ``path``.

        Read-only (no append handle is opened); the chaos campaigns
        call this on a dead process's journal.
        """
        return cls._load(path).terminal_counts

    # -- compaction ----------------------------------------------------

    def live_events(self) -> List[Dict[str, Any]]:
        """One entry event per entry plus its latest transition.

        Entries keep their replay order, the order they were first
        journaled (submission order), so a compacted journal replays
        to the same order as the one it replaces.  A running entry
        keeps its lease (replay marks it interrupted, exactly as the
        uncompacted journal does); a queued one that was leased before
        keeps its attempt count in a ``requeue``, and a terminal one in
        its ``done``/``fail`` line's ``attempt``.
        """
        replay = self._load(self.path)
        events: List[Dict[str, Any]] = []
        for key, entry in replay.entries.items():
            events.append({"ev": self.ENTRY, **self.entry_fields(entry)})
            if entry.state == STATE_DONE:
                kept = {name: getattr(entry, name) for name in self.DONE_FIELDS}
                events.append(
                    self._event(
                        "done",
                        key,
                        result=entry.result,
                        attempt=entry.attempts,
                        **kept,
                    )
                )
            elif entry.state == STATE_FAILED:
                error = entry.error or {}
                diagnostics = error.get("diagnostics")
                extra = {} if diagnostics is None else {"diagnostics": diagnostics}
                events.append(
                    self._event(
                        "fail",
                        key,
                        error_type=error.get("type", "Error"),
                        error=error.get("message", ""),
                        attempts=error.get("attempts", entry.attempts),
                        attempt=entry.attempts,
                        **extra,
                    )
                )
            elif entry.state == STATE_RUNNING:
                events.append(
                    self._event(
                        "lease", key, attempt=entry.attempts, expires_unix=0.0
                    )
                )
            elif entry.attempts:
                events.append(
                    self._event(
                        "requeue",
                        key,
                        attempt=entry.attempts,
                        reason="compacted",
                        delay_s=0.0,
                    )
                )
        return events

    # -- appends (durable first, then applied to ``replayed``) ---------

    def _event(self, kind: str, key: str, **fields: Any) -> Dict[str, Any]:
        return {"ev": kind, self.KEY: key, **fields}

    def _record(self, event: Dict[str, Any], entry: Any = None) -> None:
        self.append(event)
        self._apply(self.replayed, event, entry)

    def record_entry(self, entry: Any) -> None:
        self._record({"ev": self.ENTRY, **self.entry_fields(entry)}, entry)

    def record_lease(
        self,
        key: str,
        attempt: int,
        expires_unix: Optional[float],
        worker: Optional[str] = None,
    ) -> None:
        """``expires_unix`` is None for a lease that never expires."""
        owner = {} if worker is None else {"worker": worker}
        self._record(
            self._event(
                "lease", key, attempt=attempt, expires_unix=expires_unix, **owner
            )
        )

    def record_requeue(
        self, key: str, attempt: int, reason: str, delay_s: float = 0.0
    ) -> None:
        self._record(
            self._event(
                "requeue",
                key,
                attempt=attempt,
                reason=reason,
                delay_s=round(delay_s, 6),
            )
        )

    def record_done(self, key: str, result: Any, **extra: Any) -> None:
        """``extra`` rides along: a job's ``elapsed_s``, a cell's
        ``digest`` and ``worker``."""
        self._record(self._event("done", key, result=result, **extra))

    def record_fail(
        self,
        key: str,
        error_type: str,
        message: str,
        attempts: int,
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """``diagnostics`` (a failed cell's worker series, traceback and
        cell key) is journaled only when given."""
        extra = {} if diagnostics is None else {"diagnostics": diagnostics}
        self._record(
            self._event(
                "fail",
                key,
                error_type=error_type,
                error=message,
                attempts=attempts,
                **extra,
            )
        )

    def __enter__(self) -> "LeaseJournal":
        return self


class LeaseLedger:
    """Every lease transition of one journal's entries.

    Each transition is journaled before the in-memory state changes
    (the journal applies the event it wrote), so a crash at any point
    replays to a state the ledger was in.  Not thread-safe: the host
    serializes calls under its own lock.

    Parameters
    ----------
    journal:
        The open journal; its replayed entries become the ledger's.
    clock:
        Monotonic clock for leases and backoff.
    ttl:
        Default lease lifetime (``math.inf``: leases never expire).
    max_attempts:
        Lease grants per entry before it fails, for entries that do not
        carry their own ``max_attempts`` (a job journals its own).
    backoff_seed:
        Seed of the re-queue backoff sequence.
    """

    def __init__(
        self,
        journal: LeaseJournal,
        clock: Callable[[], float] = time.monotonic,
        ttl: float = math.inf,
        max_attempts: int = 3,
        backoff_seed: int = 0,
    ):
        self.journal = journal
        self.clock = clock
        self.max_attempts = max_attempts
        self.leases = LeaseTable(ttl=ttl, clock=clock, backoff_seed=backoff_seed)
        self.entries: Dict[str, Any] = journal.replayed.entries
        #: Keys of queued entries, in lease order.
        self.ready: List[str] = []

    def recover(self, reason: str) -> List[str]:
        """Re-queue every entry that was mid-lease when the last process
        died, and build the ready queue: those first, then the queued
        entries in journal order.  Returns the re-queued keys."""
        recovered = list(self.journal.replayed.interrupted)
        for key in recovered:
            self.journal.record_requeue(
                key, self.entries[key].attempts, reason=reason
            )
        first = set(recovered)
        self.ready = recovered + [
            key
            for key, entry in self.entries.items()
            if entry.state == STATE_QUEUED and key not in first
        ]
        return recovered

    def counts(self) -> Dict[str, int]:
        """Entries per lifecycle state."""
        out = {
            state: 0
            for state in (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED)
        }
        for entry in self.entries.values():
            out[entry.state] += 1
        return out

    # -- transitions ---------------------------------------------------

    def add(self, entry: Any) -> None:
        """Journal a new entry and queue it (the caller dedups keys)."""
        self.journal.record_entry(entry)
        self.ready.append(self.journal.key_of(entry))

    def grant(
        self,
        owner: Optional[str] = None,
        ttl: Optional[Callable[[Any], float]] = None,
    ) -> Optional[Tuple[Any, Lease]]:
        """Lease the first ready entry past its backoff.

        ``ttl(entry)`` sets this lease's lifetime (default: the
        ledger's).  Returns ``(entry, lease)``, or None when nothing is
        runnable.
        """
        now = self.clock()
        for index, key in enumerate(self.ready):
            entry = self.entries[key]
            if entry.not_before <= now:
                break
        else:
            return None
        del self.ready[index]
        seconds = self.leases.ttl if ttl is None else ttl(entry)
        attempt = entry.attempts + 1
        self.journal.record_lease(
            key,
            attempt,
            expires_unix=None if math.isinf(seconds) else time.time() + seconds,
            worker=owner,
        )
        return entry, self.leases.grant(key, attempt, owner=owner, ttl=seconds)

    def holder(self, key: str, attempt: int) -> Optional[Lease]:
        """The live lease on ``key`` if ``attempt`` holds it (fencing)."""
        live = self.leases.current(key)
        if live is None or live.attempt != attempt:
            return None
        return live

    def renew(self, key: str, attempt: int) -> bool:
        """Extend the lease ``attempt`` holds; False once fenced off."""
        live = self.holder(key, attempt)
        return live is not None and self.leases.renew(live) is not None

    def commit(self, lease: Lease, result: Any, **extra: Any) -> bool:
        """Journal ``done`` under ``lease``; False (and nothing journaled)
        when the lease was fenced off."""
        if not self.leases.release(lease):
            return False
        self.journal.record_done(lease.job_id, result, **extra)
        return True

    def fail(self, lease: Lease, error_type: str, message: str) -> bool:
        """Journal a terminal ``fail`` under ``lease`` (fenced like
        :meth:`commit`)."""
        if not self.leases.release(lease):
            return False
        self._fail(lease.job_id, error_type, message)
        return True

    def retry_or_fail(
        self,
        lease: Lease,
        reason: str,
        error_type: str,
        message: str,
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> Optional[float]:
        """End ``lease`` and re-queue its entry under backoff, or fail it
        with the given error once its attempt budget is spent.

        A lease still live is released (a reported failure); an expired
        one was revoked already.  Returns the backoff delay, or None when
        the entry failed.
        """
        self.leases.release(lease)
        key = lease.job_id
        entry = self.entries[key]
        budget = getattr(entry, "max_attempts", self.max_attempts)
        if entry.attempts >= budget:
            self._fail(key, error_type, message, diagnostics)
            return None
        delay = self.leases.requeue_delay(key)
        self.requeue(key, reason, delay)
        return delay

    def requeue(self, key: str, reason: str, delay: float = 0.0) -> None:
        """Revoke ``key``'s lease and queue it again, at the back, not
        before ``delay`` seconds from now."""
        self.leases.revoke(key)
        entry = self.entries[key]
        self.journal.record_requeue(key, entry.attempts, reason, delay_s=delay)
        entry.not_before = self.clock() + delay
        self.ready.append(key)

    def expire(self) -> List[Lease]:
        """Revoke and return every lease past its expiry; the host
        decides each one's :meth:`retry_or_fail` error."""
        expired = self.leases.expired()
        for lease in expired:
            self.leases.revoke(lease.job_id)
        return expired

    def _fail(
        self,
        key: str,
        error_type: str,
        message: str,
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.journal.record_fail(
            key, error_type, message, self.entries[key].attempts, diagnostics
        )
