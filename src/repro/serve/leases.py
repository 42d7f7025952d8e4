"""Lease-based dispatch: time-bounded ownership of a running job.

The server never hands a job to an executor unconditionally — it grants
a **lease**: ``(job id, attempt, expiry)``.  The executor owns the job
only while the lease is current; the dispatcher's monitor tick treats
an expired lease as a dead or wedged executor and re-queues the job
with decorrelated-jitter backoff (:mod:`repro.parallel.backoff` — the
same policy the supervised pool uses for worker respawns) under the
job's bounded attempt budget.

The attempt number doubles as a fencing token: an executor that was
presumed dead but eventually finishes presents its lease on commit, and
a lease that is no longer current is refused — the late result is
discarded, so a job can never reach a terminal state twice, no matter
how badly an executor overruns.

Everything here is in-memory on purpose.  Leases protect against
*executor* death inside a live server; *server* death is the journal's
problem (a dead server's leases died with it, and replay re-queues
whatever was mid-lease).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.parallel.backoff import Backoff

__all__ = ["Lease", "LeaseTable"]


@dataclass(frozen=True)
class Lease:
    """One grant of a job to one executor, valid until ``expires_at``."""

    job_id: str
    attempt: int
    expires_at: float  # monotonic seconds
    #: Who holds the grant (a dist worker id; None for the in-process
    #: executor).  Informational — fencing is by attempt, not owner.
    owner: Optional[str] = None


class LeaseTable:
    """The dispatcher's view of every live lease.

    Parameters
    ----------
    ttl:
        Lease lifetime in seconds.  Executors of healthy jobs either
        finish or renew within this window; one that does neither is
        treated as dead.
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
        #: Per-job backoff state: consecutive expirations of the same
        #: job grow its re-queue delay; unrelated jobs stay
        #: decorrelated via distinct seeds.
        self._backoffs: Dict[str, Backoff] = {}
        self._seed = backoff_seed
        self.granted = 0
        self.expired_total = 0

    def grant(
        self, job_id: str, attempt: int, owner: Optional[str] = None
    ) -> Lease:
        """Lease ``job_id`` to an executor for ``ttl`` seconds."""
        lease = Lease(
            job_id=job_id,
            attempt=attempt,
            expires_at=self.clock() + self.ttl,
            owner=owner,
        )
        self._live[job_id] = lease
        self.granted += 1
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
        """Whether ``lease`` is the live grant for its job (fencing)."""
        live = self._live.get(lease.job_id)
        return live is not None and live.attempt == lease.attempt

    def release(self, lease: Lease) -> bool:
        """Commit-side release; False means the lease was fenced off."""
        if not self.is_current(lease):
            return False
        del self._live[lease.job_id]
        # The job committed: its backoff streak is over.
        self._backoffs.pop(lease.job_id, None)
        return True

    def revoke(self, job_id: str) -> None:
        """Drop a job's lease without a commit (expiry or drain).

        Backoff state survives revocation on purpose: consecutive
        expirations of the same job must keep growing its re-queue
        delay (revoke runs *before* :meth:`requeue_delay` in the
        dispatcher's expiry path).
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
            # Stable per-job seed (not ``hash()``, which is salted per
            # process): the delay sequence is reproducible across
            # tests/chaos runs but differs between jobs.
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
