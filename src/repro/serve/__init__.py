"""``repro.serve`` — the crash-safe, long-running simulation server.

ROADMAP item 2 ("sweep-as-a-service") made operational: an HTTP daemon
over the stable :mod:`repro.api` facade, built so that a million users
asking for fig02 costs one run — and so that a SIGKILL costs nothing.

The pieces, bottom-up:

- :mod:`repro.serve.jobs` — the job model: request validation against
  the keyword-only API schema, content-derived job ids (identical
  requests collapse to one job).
- :mod:`repro.serve.leases` — the lease state machine served jobs and
  sharded cells share: the journal base class, the lease table, and the
  ledger that journals every transition first.  A job runs under a
  lease that lasts its deadline; an expired lease (dead or wedged
  executor) is re-queued with decorrelated-jitter backoff under a
  bounded attempt budget, and a stale executor's late result is
  discarded.
- :mod:`repro.serve.journal` — the write-ahead job journal's on-disk
  vocabulary: every state transition is one fsync'd JSONL line, so a
  killed daemon replays to exactly the state it died in — zero lost
  and zero duplicated work.
- :mod:`repro.serve.admission` — backpressure: a bounded queue sheds
  load with ``429`` past its high-water mark and ``503`` while
  draining; readiness (including slot-shrink degradation) is one
  inspectable state object behind ``GET /readyz``.
- :mod:`repro.serve.app` — the daemon itself: ``POST /jobs``,
  ``GET /jobs/<id>``, ``/healthz``, ``/readyz``, and a live Prometheus
  ``/metrics`` endpoint fed by the unified
  :class:`repro.prof.registry.MetricsRegistry`.  SIGTERM drains
  gracefully: admission closes, in-flight jobs finish (or are
  re-queued into the journal), and the process exits 0.
- :mod:`repro.serve.client` — a stdlib-only client:
  ``ServeClient(url).submit(...)`` / ``.wait(job_id)``.

Everything rides the substrate PRs 3–5 built: execution lands on
:class:`repro.parallel.pool.SweepExecutor` (and through it the
supervised worker pool, which re-runs a killed worker's cell),
results dedup through the content-addressed
:class:`repro.parallel.cache.ResultCache`, and
``python -m repro.harness chaos --server`` SIGKILLs the daemon
mid-sweep to prove recovery is byte-identical.
"""

from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.jobs import Job, RequestError, normalize_request

__all__ = [
    "Job",
    "RequestError",
    "ServeClient",
    "ServeHTTPError",
    "normalize_request",
]
