"""Decorrelated-jitter exponential backoff, shared by every retry path.

Immediate retry is the worst possible response to a correlated failure:
a host under memory pressure that just killed a worker will kill its
instant replacement too, and a thundering herd of sweep cells retrying
in lockstep re-creates the very contention that failed them.  The fix
everybody converges on (see the AWS architecture blog's "Exponential
Backoff And Jitter") is *decorrelated jitter*::

    delay = min(cap, uniform(base, previous_delay * 3))

which grows roughly exponentially, never synchronizes two independent
retriers, and stays bounded by ``cap``.

:class:`Backoff` packages that policy behind a seeded RNG so tests (and
the chaos campaign) see reproducible delay sequences.  It is shared by:

- :func:`repro.parallel.cells.execute_cell` — sleeps between per-cell
  retry attempts (previously immediate);
- :class:`repro.parallel.supervisor.SupervisedPool` — delays the
  re-run of a cell whose worker crashed or hung;
- :class:`repro.serve.leases.LeaseTable` — schedules the re-queue of an
  expired lease (``not_before`` timestamps rather than sleeps).

Delays only shape *when* work re-runs, never *what* it computes, so the
byte-identity guarantees are untouched.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

__all__ = ["Backoff", "DEFAULT_BASE", "DEFAULT_CAP"]

#: Default first-delay lower bound, seconds.  Small on purpose: local
#: retries mostly fight transient scheduling noise, not remote outages.
DEFAULT_BASE = 0.05

#: Default delay ceiling, seconds.
DEFAULT_CAP = 2.0


class Backoff:
    """A seeded decorrelated-jitter delay sequence.

    Parameters
    ----------
    base:
        Lower bound of every delay (also the first delay's floor).  A
        non-positive base disables the policy: :meth:`next` returns
        0.0 forever and :meth:`sleep` never blocks.
    cap:
        Upper bound every delay is clamped to.
    seed:
        RNG seed; the same seed replays the same delay sequence, which
        is how tests pin scheduling-adjacent behavior without clocks.
    sleep:
        Injectable sleeper for :meth:`sleep` (tests pass a recorder).
    """

    def __init__(
        self,
        base: float = DEFAULT_BASE,
        cap: float = DEFAULT_CAP,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if cap < base:
            raise ValueError(f"backoff cap {cap} is below base {base}")
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._previous = base
        self.attempts = 0

    def next(self) -> float:
        """The next delay in seconds (0.0 when the policy is disabled)."""
        self.attempts += 1
        if self.base <= 0:
            return 0.0
        delay = min(self.cap, self._rng.uniform(self.base, self._previous * 3))
        self._previous = delay
        return delay

    def sleep(self) -> None:
        """Block for :meth:`next` seconds (no-op when disabled)."""
        delay = self.next()
        if delay > 0:
            self._sleep(delay)

    def reset(self) -> None:
        """Forget accumulated growth; the next delay starts from base."""
        self._previous = self.base
        self.attempts = 0


def for_cell_retries(seed: int = 0) -> Optional[Backoff]:
    """The default retry backoff for sweep cells.

    Kept short (base 50 ms, cap 2 s): cell retries are in-process and
    deterministic apart from the perturbed fault seed, so the delay is
    about de-correlating siblings, not waiting out an outage.
    """
    return Backoff(base=DEFAULT_BASE, cap=DEFAULT_CAP, seed=seed)
