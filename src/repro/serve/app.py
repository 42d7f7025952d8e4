"""The ``repro.serve`` HTTP daemon: journaled jobs, leases, drain.

One process, three moving parts:

- the **HTTP layer** (stdlib ``ThreadingHTTPServer``; no new deps):
  ``POST /jobs`` submits a simulate/sweep/figure request,
  ``GET /jobs/<id>`` polls it, ``GET /jobs`` lists, ``GET /healthz`` is
  process liveness, ``GET /readyz`` is routable readiness (503 while
  starting or draining; degradation spelled out in the body), and
  ``GET /metrics`` serves the unified
  :class:`repro.prof.registry.MetricsRegistry` as Prometheus text
  (``python -m repro.harness top --url`` renders it as the live ops
  view);
- the **dispatcher** (one background thread): leases queued jobs to
  executor threads while slots are free, and shrinks the slot count
  (→ serial fallback) when infrastructure failures streak.  It wakes
  as soon as a job is admitted or an executor commits; ``tick_s`` only
  bounds the wait, for lease expiry and backoff;
- the **ledger** (:class:`repro.serve.leases.LeaseLedger` over the
  job journal, :mod:`repro.serve.journal`): every transition — admit,
  lease, expiry, re-queue under backoff or fail past the attempt
  budget, fenced commit, drain — is fsync'd *before* the server acts on
  it, which is the entire crash-safety story: kill the daemon anywhere,
  restart it on the same journal, and every job continues to exactly
  one terminal state.  A job's lease lasts its deadline plus
  ``LEASE_GRACE_S``; a job that fails is terminal.

Execution reuses the sweep substrate end to end: cells run through
:class:`repro.parallel.pool.SweepExecutor` (with ``cell_jobs > 1``
that means the supervised worker pool, which re-runs a killed
worker's cell), identical work dedups through the content-addressed
:class:`repro.parallel.cache.ResultCache`, and per-job wall-clock
deadlines ride :func:`repro.faults.watchdog.wall_clock_guard`.

Run it::

    python -m repro.serve --journal serve-journal.jsonl \
        --cache ~/.cache/repro-serve --port 8750

SIGTERM (or SIGINT) drains: admission closes (503), in-flight jobs get
``drain_grace_s`` to finish, anything still leased is re-queued into
the journal for the next incarnation, and the process exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import config_from_dict
from repro.durable import atomic_write
from repro.faults.errors import SimulationError, WorkerCrashed
from repro.obs import log as _log
from repro.faults.watchdog import wall_clock_guard
from repro.parallel.cache import ResultCache
from repro.parallel.cells import Cell
from repro.parallel.pool import SweepExecutor
from repro.parallel.supervisor import PoolHealth
from repro.prof.export import to_prometheus
from repro.prof.registry import REGISTRY, MetricsRegistry
from repro.serve.admission import AdmissionController, Readiness
from repro.serve.jobs import (
    Job,
    RequestError,
    job_id_for,
    normalize_request,
)
from repro.serve.journal import JobJournal
from repro.serve.leases import STATE_DONE, STATE_FAILED, Lease, LeaseLedger

__all__ = ["ServeApp", "ServeConfig", "main", "make_server"]

#: Largest request body read (413 beyond it).  The biggest real body, a
#: ``/dist/shard`` of a large sweep, is a few MB.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a job's lease outlasts its deadline.  The deadline guard
#: raises inside the executor at the deadline; the grace covers the
#: commit that follows.  A job with no deadline holds its lease until
#: it commits.
LEASE_GRACE_S = 1.0


@dataclass
class ServeConfig:
    """Everything the daemon is told at startup."""

    journal: str
    #: Size bound for the job journal; once an append pushes past it,
    #: the live state is compacted to a fresh segment atomically
    #: (None = grow without bound).
    journal_max_mb: Optional[float] = None
    host: str = "127.0.0.1"
    port: int = 0
    cache: Optional[str] = None
    cache_max_mb: Optional[float] = None
    #: Concurrent jobs (executor threads).  Distinct from ``cell_jobs``:
    #: a single figure job can itself fan cells out to worker processes.
    slots: int = 2
    #: Worker processes per job's sweep; >1 routes cells through the
    #: supervised pool.
    cell_jobs: int = 1
    #: Queue high-water mark: non-terminal jobs beyond this are shed
    #: with 429.
    high_water: int = 64
    #: Default per-job wall-clock budget (None = unbounded).  A job's
    #: lease lasts its budget plus ``LEASE_GRACE_S``.
    deadline_s: Optional[float] = 600.0
    #: Lease grants per job before it fails terminally.
    max_attempts: int = 3
    #: Per-cell structured-error retries inside a job.
    retries: int = 0
    #: Seconds in-flight jobs get to finish during drain before being
    #: re-queued for the next incarnation.
    drain_grace_s: float = 30.0
    retry_after_s: float = 2.0
    #: Longest the dispatcher sleeps between lease-expiry and backoff
    #: checks; admissions and completions wake it at once.
    tick_s: float = 0.02
    #: Cell journal for the distributed sweep coordinator; None leaves
    #: the ``/dist/*`` routes off (single-machine daemon).
    dist_journal: Optional[str] = None
    #: Lease lifetime for remote workers (workers heartbeat at ttl/3
    #: while executing).
    dist_lease_ttl_s: float = 30.0
    #: Lease grants per cell before it fails structurally.
    dist_max_attempts: int = 3


class ServeApp:
    """The server's state machine, independent of the HTTP layer.

    Tests drive this object directly (fake clock, fake executor); the
    HTTP handler is a thin translation layer over :meth:`submit`,
    :meth:`job_view`, :meth:`readyz_view`, and :meth:`metrics_text`.
    """

    def __init__(
        self,
        config: ServeConfig,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        run_job: Optional[Callable[[Job], Any]] = None,
    ):
        self.config = config
        self.registry = registry if registry is not None else REGISTRY
        self.clock = clock
        self._run_job_fn = run_job if run_job is not None else self._run_job
        self.lock = threading.RLock()
        #: Every job transition (journal, ready queue, leases); built
        #: by :meth:`start`, which opens and replays the journal.
        self.ledger: Optional[LeaseLedger] = None
        self.admission = AdmissionController(
            config.high_water, retry_after_s=config.retry_after_s
        )
        self.readiness = Readiness(config.slots)
        # Same slot-shrink governor the supervised pool uses: streaks of
        # infrastructure failures (expired leases, crashed workers)
        # degrade concurrency down to serial instead of thrashing.
        self.health = PoolHealth(config.slots)
        self.cache = (
            ResultCache(
                config.cache,
                max_bytes=(
                    int(config.cache_max_mb * 1024 * 1024)
                    if config.cache_max_mb is not None
                    else None
                ),
            )
            if config.cache
            else None
        )
        #: Distributed sweep coordinator (``/dist/*`` routes), built in
        #: :meth:`start` when the config names a cell journal.
        self.coordinator: Optional["DistCoordinator"] = None
        self._stop = threading.Event()
        #: Set when the dispatcher has work: a job was queued, a slot
        #: freed, or a stop was requested.
        self._wake = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._executors: List[threading.Thread] = []

    # -- run log -------------------------------------------------------

    @staticmethod
    def _job_log(job: Job) -> _log.RunLogger:
        """Serve logger bound with the job's identity (and its engine
        when the request pinned one)."""
        context: Dict[str, Any] = {
            "job_id": job.id,
            "kind": job.kind,
            "attempt": job.attempts,
        }
        engine = (
            job.params.get("engine")
            if isinstance(job.params, dict)
            else None
        )
        if engine:
            context["engine"] = engine
        return _log.get_logger("serve", **context)

    # -- metrics -------------------------------------------------------

    def _observe_gauges(self) -> None:
        reg = self.registry
        reg.gauge(
            "serve_queue_depth", help="jobs queued and awaiting a lease"
        ).set(len(self.ledger.ready))
        reg.gauge("serve_in_flight", help="jobs currently leased").set(
            self.ledger.leases.live_count
        )
        reg.gauge(
            "serve_slots", help="current executor slots (shrinks when degraded)"
        ).set(self.health.slots)
        reg.gauge(
            "serve_ready", help="1 when /readyz returns 200"
        ).set(1 if self.readiness.is_ready else 0)

    def _count_request(self, method: str, route: str, code: int) -> None:
        self.registry.counter(
            "serve_http_requests_total", help="HTTP requests by route and code"
        ).inc(method=method, route=route, code=str(code))

    def _count_requeue(self, reason: str) -> None:
        self.registry.counter(
            "serve_requeues_total", help="lease re-queues by reason"
        ).inc(reason=reason)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Open (and replay) the journal, then start dispatching."""
        max_bytes = (
            int(self.config.journal_max_mb * 1024 * 1024)
            if self.config.journal_max_mb is not None
            else None
        )
        journal = JobJournal(self.config.journal, max_bytes=max_bytes)
        if self.config.dist_journal:
            from repro.dist.coordinator import DistCoordinator

            self.coordinator = DistCoordinator(
                self.config.dist_journal,
                cache=self.cache,
                registry=self.registry,
                lease_ttl=self.config.dist_lease_ttl_s,
                max_attempts=self.config.dist_max_attempts,
                clock=self.clock,
                journal_max_bytes=max_bytes,
            )
        with self.lock:
            self.ledger = LeaseLedger(journal, clock=self.clock)
            # Interrupted jobs (leased when the last incarnation died)
            # re-queue first — their submitters have waited longest —
            # then the still-queued ones in submission order.
            recovered = self.ledger.recover("recovered")
            for _ in recovered:
                self._count_requeue("recovered")
            self.readiness.started = True
            self._observe_gauges()
            if _log.ENABLED:
                _log.get_logger("serve").info(
                    "serve_start",
                    jobs=len(self.ledger.entries),
                    requeued=len(recovered),
                    queued=len(self.ledger.ready),
                    slots=self.health.slots,
                )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def begin_drain(self) -> None:
        """Stop admitting; /readyz flips to 503 immediately."""
        with self.lock:
            self.readiness.draining = True
            self._observe_gauges()
            if _log.ENABLED:
                _log.get_logger("serve").info(
                    "drain_begin",
                    queued=len(self.ledger.ready),
                    in_flight=self.ledger.leases.live_count,
                )

    def drain(self, grace_s: Optional[float] = None) -> int:
        """Graceful shutdown: finish or re-queue in-flight, then stop.

        Returns the number of jobs re-queued for the next incarnation
        (0 means everything in flight finished inside the grace
        period).  The journal is durable at return.
        """
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        self.begin_drain()
        deadline = self.clock() + grace
        while self.clock() < deadline:
            with self.lock:
                if self.ledger.leases.live_count == 0:
                    break
            time.sleep(self.config.tick_s)
        with self.lock:
            # Whatever is still leased will not finish in time: fence
            # the leases off (late results are discarded) and journal
            # the re-queue so the next incarnation runs these jobs.
            requeued = self.ledger.leases.live_job_ids()
            for job_id in requeued:
                self.ledger.requeue(job_id, "drain")
                self._count_requeue("drain")
            self._observe_gauges()
        self.close()
        if _log.ENABLED:
            _log.get_logger("serve").info("drain_end", requeued=len(requeued))
        return len(requeued)

    def close(self) -> None:
        """Hard stop (tests): no grace, no re-queue of the queue."""
        self._stop.set()
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        with self.lock:
            if self.ledger is not None:
                self.ledger.journal.close()
            if self.coordinator is not None:
                self.coordinator.close()
                self.coordinator = None

    # -- submission (POST /jobs) ---------------------------------------

    def submit(self, body: Any) -> Tuple[int, Dict[str, Any]]:
        """Admit one request; returns ``(http_status, response_body)``."""
        try:
            normalized = normalize_request(body)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        job_id = job_id_for(normalized)
        with self.lock:
            jobs = self.ledger.entries
            existing = jobs.get(job_id)
            depth = sum(1 for j in jobs.values() if not j.terminal)
            verdict = self.admission.decide(
                queue_depth=depth,
                draining=self.readiness.draining,
                duplicate=existing is not None,
            )
            if not verdict.accepted:
                reason = "draining" if verdict.http_status == 503 else "busy"
                self.registry.counter(
                    "serve_admission_rejections_total",
                    help="submissions shed by admission control",
                ).inc(reason=reason)
                if _log.ENABLED:
                    _log.get_logger("serve").warning(
                        "admission_reject",
                        job_id=job_id,
                        reason=reason,
                        queue_depth=depth,
                    )
                body_out: Dict[str, Any] = {"error": verdict.reason}
                if verdict.retry_after_s is not None:
                    body_out["retry_after_s"] = verdict.retry_after_s
                return verdict.http_status, body_out
            self.registry.counter(
                "serve_jobs_submitted_total",
                help="accepted submissions by dedup outcome",
            ).inc(dedup="hit" if existing is not None else "miss")
            if existing is not None:
                return 200, existing.public_dict(include_result=False)
            job = Job.from_request(
                normalized, max_attempts=self.config.max_attempts
            )
            # Journal first, act second: the submit line is durable
            # before the client ever sees the 201.
            self.ledger.add(job)
            self._observe_gauges()
            if _log.ENABLED:
                self._job_log(job).info(
                    "job_admitted", queue_depth=depth + 1
                )
            view = job.public_dict(include_result=False)
        self._wake.set()
        return 201, view

    # -- queries -------------------------------------------------------

    def job_view(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self.lock:
            job = self.ledger.entries.get(job_id)
            return None if job is None else job.public_dict()

    def jobs_view(self) -> List[Dict[str, Any]]:
        with self.lock:
            return [
                job.public_dict(include_result=False)
                for job in sorted(
                    self.ledger.entries.values(),
                    key=lambda j: j.submitted_unix,
                )
            ]

    def _dist_fleet_view(self) -> Optional[Dict[str, Any]]:
        """Fleet summary for /readyz (None = dist off).

        ``degraded`` flags the state an operator must see: cells are
        waiting but zero workers are live — the sweep is stalled until
        a worker returns (nothing is lost; leases re-queue on expiry).
        """
        if self.coordinator is None:
            return None
        counts = self.coordinator.counts()
        workers_live = self.coordinator.live_workers()
        pending = counts.get("queued", 0) + counts.get("running", 0)
        return {
            "workers_live": workers_live,
            "cells": counts,
            "degraded": workers_live == 0 and pending > 0,
        }

    def readyz_view(self) -> Tuple[int, Dict[str, Any]]:
        with self.lock:
            self.readiness.current_slots = self.health.slots
            extra: Dict[str, Any] = {
                "queue_depth": len(self.ledger.ready),
                "in_flight": self.ledger.leases.live_count,
            }
            fleet = self._dist_fleet_view()
            if fleet is not None:
                extra["dist"] = fleet
            body = self.readiness.describe(**extra)
            return self.readiness.http_status, body

    def metrics_text(self) -> str:
        with self.lock:
            self._observe_gauges()
            return to_prometheus(self.registry)

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            # Clear before the tick: a wake-up that lands during it
            # keeps the event set, so the wait below returns at once.
            self._wake.clear()
            self._tick()
            self._wake.wait(self.config.tick_s)

    def _tick(self) -> None:
        """One supervision step: expire leases, then fill free slots."""
        if self.coordinator is not None:
            # Dist upkeep first (its own lock): expire worker leases,
            # re-queue their cells, refresh fleet gauges.
            self.coordinator.maintain()
        with self.lock:
            for lease in self.ledger.expire():
                self._on_lease_expired(lease)
            if self.readiness.draining:
                return
            while self.ledger.leases.live_count < self.health.slots:
                granted = self.ledger.grant(ttl=self._lease_ttl)
                if granted is None:
                    break
                self._launch(*granted)
            self.readiness.current_slots = self.health.slots
            self._observe_gauges()

    def _deadline(self, job: Job) -> Optional[float]:
        """The job's wall-clock budget (None or 0: unbounded)."""
        if job.deadline_s is not None:
            return job.deadline_s
        return self.config.deadline_s

    def _lease_ttl(self, job: Job) -> float:
        deadline = self._deadline(job)
        return deadline + LEASE_GRACE_S if deadline else math.inf

    def _launch(self, job: Job, lease: Lease) -> None:
        if _log.ENABLED:
            ttl = self._lease_ttl(job)
            self._job_log(job).info(
                "lease_granted", ttl_s=None if math.isinf(ttl) else ttl
            )
        thread = threading.Thread(
            target=self._execute,
            args=(job.copy(), lease),
            name=f"serve-exec-{job.id}",
            daemon=True,
        )
        self._executors.append(thread)
        self._executors = [t for t in self._executors if t.is_alive()]
        thread.start()

    def _on_lease_expired(self, lease: Lease) -> None:
        """A leaseholder went dark: fence it off and re-queue or fail."""
        self.registry.counter(
            "serve_lease_expirations_total",
            help="leases that expired before their executor committed",
        ).inc()
        self.health.on_crash()
        job = self.ledger.entries[lease.job_id]
        delay = self.ledger.retry_or_fail(
            lease,
            "lease-expired",
            "LeaseExpired",
            f"lease expired on attempt {job.attempts}/{job.max_attempts}; "
            "executor presumed dead or wedged",
        )
        if delay is None:
            self._count_terminal(STATE_FAILED)
            if _log.ENABLED:
                self._job_log(job).error(
                    "lease_expired", outcome="failed", attempts=job.attempts
                )
            return
        self._count_requeue("lease-expired")
        if _log.ENABLED:
            self._job_log(job).warning(
                "lease_expired",
                outcome="requeued",
                delay_s=round(delay, 3),
            )

    def _count_terminal(self, state: str) -> None:
        self.registry.counter(
            "serve_jobs_terminal_total", help="jobs reaching a terminal state"
        ).inc(state=state)

    # -- execution -----------------------------------------------------

    def _execute(self, job: Job, lease: Lease) -> None:
        """Executor-thread body: run the job, commit under the lease."""
        started = self.clock()
        failure: Optional[Tuple[str, str]] = None
        infrastructure = False
        result: Any = None
        try:
            result = self._run_job_fn(job)
        except WorkerCrashed as exc:
            failure = (type(exc).__name__, str(exc))
            infrastructure = True
        except SimulationError as exc:
            failure = (type(exc).__name__, str(exc))
        except BaseException as exc:  # noqa: BLE001 — executor boundary
            failure = (type(exc).__name__, str(exc))
        elapsed = self.clock() - started
        with self.lock:
            # A failed job is terminal: its error is deterministic, so a
            # retry would only repeat it.
            if failure is None:
                committed = self.ledger.commit(
                    lease, result, elapsed_s=round(elapsed, 6)
                )
            else:
                committed = self.ledger.fail(lease, *failure)
            if not committed:
                # Fenced off: the lease expired (or drain revoked it)
                # and the job moved on without us.  Exactly-once means
                # this late outcome must be discarded.
                self.registry.counter(
                    "serve_stale_results_total",
                    help="executor outcomes discarded after lease loss",
                ).inc()
                if _log.ENABLED:
                    self._job_log(job).warning(
                        "stale_result_discarded",
                        elapsed_s=round(elapsed, 3),
                    )
                return
            live = self.ledger.entries[job.id]
            if failure is None:
                self.health.on_success()
                self._count_terminal(STATE_DONE)
                if _log.ENABLED:
                    self._job_log(live).info(
                        "job_done", elapsed_s=round(elapsed, 3)
                    )
            else:
                if infrastructure:
                    self.health.on_crash()
                else:
                    # A structured simulation failure is deterministic;
                    # it says nothing about the host's health.
                    self.health.on_success()
                self._count_terminal(STATE_FAILED)
                if _log.ENABLED:
                    self._job_log(live).error(
                        "job_failed",
                        error=failure[0],
                        infrastructure=infrastructure,
                        elapsed_s=round(elapsed, 3),
                    )
            self.registry.histogram(
                "serve_job_seconds", help="job execution wall time"
            ).observe(elapsed, kind=job.kind)
            self._observe_gauges()
        self._wake.set()  # the slot is free: lease the next queued job

    def _run_job(self, job: Job) -> Any:
        """Default executor: map the job onto the repro.api substrate."""
        deadline = self._deadline(job)
        with wall_clock_guard(deadline or 0.0, label=f"job {job.id}"):
            if job.kind == "simulate":
                cell = Cell(
                    label="serve",
                    workload=job.params["workload"],
                    config=config_from_dict(job.params["config"]),
                    form=job.params.get("form"),
                    miss_scale=job.params.get("miss_scale", 1.0),
                )
                executor = SweepExecutor(
                    jobs=1,
                    cache=self.cache,
                    retries=self.config.retries,
                )
                return executor.run([cell])[0].to_dict()
            if job.kind == "sweep":
                from repro.api import sweep as api_sweep

                rows = api_sweep(
                    configs={
                        label: config_from_dict(spec)
                        for label, spec in job.params["configs"].items()
                    },
                    workloads=job.params.get("workloads"),
                    jobs=self.config.cell_jobs,
                    cache=self.config.cache,
                    cache_max_mb=self.config.cache_max_mb,
                    retries=self.config.retries,
                    form=job.params.get("form"),
                    miss_scale=job.params.get("miss_scale", 1.0),
                    baseline=job.params.get("baseline"),
                )
                return [row.to_dict() for row in rows]
            from repro.api import figure as api_figure

            row = api_figure(
                name=job.params["name"],
                workloads=job.params.get("workloads"),
                jobs=self.config.cell_jobs,
                cache=self.config.cache,
                cache_max_mb=self.config.cache_max_mb,
                retries=self.config.retries,
                engine=job.params.get("engine"),
            )
            return row.to_dict()


# -- HTTP layer --------------------------------------------------------


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: ServeApp


_JSON = "application/json"


def _json(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body leave in two writes, and with
    # Nagle's algorithm on, a keep-alive client would get each body only
    # after its delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # metrics carry the request log; stderr stays quiet

    def _send(
        self,
        code: int,
        content_type: str,
        body: bytes,
        route: str,
        retry_after_s: Optional[float] = None,
        close: bool = False,
    ) -> None:
        """Write one whole response and count it under ``route``;
        ``close`` ends the connection after it."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after_s))))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.app._count_request(self.command, route, code)

    def _dist(self, path: str, body: Any = None) -> None:
        """Delegate a ``/dist/*`` request to the coordinator."""
        coordinator = self.app.coordinator
        if coordinator is None:
            code, payload = 404, {
                "error": "distributed sharding is disabled "
                "(start the daemon with --dist-journal)"
            }
        else:
            code, payload = coordinator.handle(self.command, path, body)
        self._send(code, _JSON, _json(payload), "/dist")

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path.startswith("/dist/"):
            self._dist(path)
            return
        if path == "/metrics":
            body = self.app.metrics_text().encode("utf-8")
            self._send(200, "text/plain; version=0.0.4", body, path)
            return
        route = path
        if path == "/healthz":
            code, payload = 200, {"status": "alive"}
        elif path == "/readyz":
            code, payload = self.app.readyz_view()
        elif path == "/jobs":
            code, payload = 200, {"jobs": self.app.jobs_view()}
        elif path.startswith("/jobs/"):
            route = "/jobs/<id>"
            job_id = path[len("/jobs/"):]
            view = self.app.job_view(job_id)
            if view is None:
                code, payload = 404, {"error": f"no job {job_id!r}"}
            else:
                code, payload = 200, view
        else:
            code, payload = 404, {"error": f"no route {path!r}"}
        self._send(code, _JSON, _json(payload), route)

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs" and not path.startswith("/dist/"):
            self._send(
                404, _JSON, _json({"error": f"no route {path!r}"}), path
            )
            return
        route = "/dist" if path.startswith("/dist/") else "/jobs"
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Read nothing on a length we cannot honour: -1 would block
            # until the client hangs up and a huge one raises
            # MemoryError.  The unread body leaves the stream
            # unframed, so the connection closes after the answer.
            if length > MAX_BODY_BYTES:
                code, error = 413, f"request body over {MAX_BODY_BYTES} bytes"
            else:
                code, error = 400, f"bad Content-Length {header!r}"
            self._send(
                code, _JSON, _json({"error": error}), route, close=True
            )
            return
        try:
            raw = self.rfile.read(length) if length else b""
            body = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError):
            # A torn body (truncated upload, injected tear) is a 400 —
            # never a half-parsed payload.
            self._send(
                400,
                _JSON,
                _json({"error": "request body is not valid JSON"}),
                route,
            )
            return
        if path.startswith("/dist/"):
            self._dist(path, body)
            return
        code, payload = self.app.submit(body)
        self._send(
            code,
            _JSON,
            _json(payload),
            "/jobs",
            retry_after_s=payload.get("retry_after_s") if code == 429 else None,
        )


def make_server(app: ServeApp) -> _ServeHTTPServer:
    """Bind the HTTP server for ``app`` (port 0 picks a free port)."""
    httpd = _ServeHTTPServer(
        (app.config.host, app.config.port), _Handler
    )
    httpd.app = app
    return httpd


# -- daemon entry point ------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Crash-safe simulation server over repro.api.",
    )
    parser.add_argument(
        "--journal",
        required=True,
        metavar="PATH",
        help="write-ahead job journal (JSONL); restarting on the same "
        "journal resumes every job exactly once",
    )
    parser.add_argument(
        "--journal-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="compact the journal once it outgrows this size "
        "(live entries are rewritten to a fresh segment atomically; "
        "default: unbounded)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8750, help="0 picks a free port"
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound 'host:port' here once listening "
        "(for --port 0 orchestration)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed result cache shared by every job",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU size bound for the result cache",
    )
    parser.add_argument(
        "--slots", type=int, default=2, help="concurrent jobs (default 2)"
    )
    parser.add_argument(
        "--cell-jobs",
        type=int,
        default=1,
        help="worker processes per job's sweep; >1 uses the supervised "
        "pool (default 1)",
    )
    parser.add_argument(
        "--high-water",
        type=int,
        default=64,
        help="queue depth past which POST /jobs returns 429 (default 64)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="default per-job wall-clock budget; a job's lease lasts "
        "its budget plus a second's grace (default 600; 0 = none)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="lease grants per job before it fails terminally (default 3)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="per-cell structured-error retries inside a job (default 0)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds in-flight jobs get to finish on SIGTERM "
        "(default 30)",
    )
    parser.add_argument(
        "--dist-journal",
        default=None,
        metavar="PATH",
        help="cell journal for the distributed sweep coordinator; "
        "enables the /dist/* routes remote workers pull from",
    )
    parser.add_argument(
        "--dist-lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="worker lease lifetime; a worker silent past this is "
        "presumed dead and its cell re-queued (default 30)",
    )
    parser.add_argument(
        "--dist-max-attempts",
        type=int,
        default=3,
        help="lease grants per cell before it fails structurally "
        "(default 3)",
    )
    args = parser.parse_args(argv)
    _log.configure_from_env()

    config = ServeConfig(
        journal=args.journal,
        journal_max_mb=args.journal_max_mb,
        host=args.host,
        port=args.port,
        cache=args.cache,
        cache_max_mb=args.cache_max_mb,
        slots=max(1, args.slots),
        cell_jobs=max(1, args.cell_jobs),
        high_water=max(1, args.high_water),
        deadline_s=args.deadline if args.deadline > 0 else None,
        max_attempts=max(1, args.max_attempts),
        retries=max(0, args.retries),
        drain_grace_s=args.drain_grace,
        dist_journal=args.dist_journal,
        dist_lease_ttl_s=args.dist_lease_ttl,
        dist_max_attempts=max(1, args.dist_max_attempts),
    )
    app = ServeApp(config)
    app.start()
    httpd = make_server(app)
    bound = f"{httpd.server_address[0]}:{httpd.server_address[1]}"
    if args.port_file:
        # Atomic, so a poller that sees the file never reads it empty.
        atomic_write(args.port_file, bound)
    print(f"repro.serve listening on {bound}", flush=True)

    drain_requested = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        drain_requested.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    http_thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.1},
        daemon=True,
    )
    http_thread.start()
    while not drain_requested.wait(timeout=0.2):
        pass
    print("repro.serve draining (signal received)", flush=True)
    app.begin_drain()  # stop admitting before the listener goes away
    requeued = app.drain()
    httpd.shutdown()
    httpd.server_close()
    http_thread.join(timeout=5.0)
    print(
        f"repro.serve drained: {requeued} job(s) re-queued for the next "
        "incarnation",
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
