"""The server table of the chaos campaign: attack ``repro.serve``.

``python -m repro.harness chaos --server`` points the same seeded
adversary at the daemon instead of the sweep pool:

1. **daemon restart** — a real ``python -m repro.serve`` subprocess is
   killed (SIGKILL, no cleanup) while a sweep job is running; a restart
   on the same journal must re-queue the interrupted job, run it to
   ``done`` exactly once, serve a result byte-identical to an
   uninterrupted in-process run, and drain with exit 0 on SIGTERM.
2. **torn journal** — the dead server's journal gets a half-written
   final line appended (a crash mid-``write``); replay must drop
   exactly that line with a warning and the restarted daemon must
   still serve every prior job.
3. **fig02 round trip** — the README quickstart the same way: the
   ``fig02`` figure job survives a daemon SIGKILL and matches
   :func:`repro.api.figure`; one ``harness top --url --once --plain``
   frame of the restarted daemon shows its ``serve`` line.
4. **lease expiry** — an executor that wedges past the lease TTL is
   presumed dead: the job is re-queued with backoff, the retry
   succeeds, and the wedged executor's late result is fenced off —
   terminal exactly once.
5. **admission flood** — submissions past the queue's high-water mark
   are shed with ``429`` (plus ``Retry-After``) while everything below
   it completes; during drain, new work gets ``503`` and the daemon
   exits 0 with a replayable journal.

Exit codes match :mod:`repro.harness.chaos`: 0 pass, 1 verification
failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api import figure as api_figure
from repro.harness.chaos import Campaign, Daemon, Scenario, wait_for
from repro.serve.app import ServeApp, ServeConfig, make_server
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.jobs import Job, normalize_request
from repro.serve.journal import JobJournal
from repro.serve.leases import TERMINAL_STATES

#: Wall-clock budget for a job to complete.
JOB_TIMEOUT = 120.0


def _sweep_request(c: Campaign) -> Dict[str, Any]:
    """The campaign's sweep job: tiny machines, a few cells."""
    tiny = {"num_cores": 1, "warps_per_core": 8, "warp_width": 8}
    # The engine rides in the configs: ServeClient.submit sends only a
    # request's kind and params.
    if c.engine is not None:
        tiny["engine"] = c.engine
    return {
        "kind": "sweep",
        "params": {
            "configs": {
                "base": {"preset": "no_tlb", "overrides": dict(tiny)},
                "aug": {"preset": "augmented", "overrides": dict(tiny)},
            },
            "workloads": _workloads(c),
        },
    }


def _workloads(c: Campaign) -> List[str]:
    return c.workloads or (["bfs"] if c.quick else ["bfs", "kmeans"])


def _job_id(request: Dict[str, Any]) -> str:
    return Job.from_request(normalize_request(request)).id


def _canonical(result: Any) -> str:
    return json.dumps(result, sort_keys=True)


def _baseline_result(request: Dict[str, Any]) -> str:
    """The uninterrupted answer, canonical-JSON'd for byte comparison.

    Runs the job through the very same :meth:`ServeApp._run_job`
    mapping the daemon uses — serial, no cache — so any divergence in
    the served result is a recovery bug, not a harness artifact.  The
    app is never started, so it never opens its journal.
    """
    app = ServeApp(ServeConfig(journal=os.devnull))
    job = Job.from_request(normalize_request(request))
    return _canonical(app._run_job(job))


def _journal(c: Campaign, tag: str) -> str:
    return os.path.join(c.tmp, f"{tag}-journal.jsonl")


def _serve_args(c: Campaign, tag: str) -> Tuple[str, ...]:
    return (
        "--journal", _journal(c, tag),
        "--cache", os.path.join(c.tmp, f"{tag}-cache"),
        "--slots", "2", "--drain-grace", "10",
    )


@contextmanager
def _killed_mid_job(
    c: Campaign, tag: str, request: Dict[str, Any]
) -> Iterator[Tuple[Daemon, Dict[str, Any]]]:
    """A daemon SIGKILLed with ``request``'s job in flight, restarted on
    the same journal and cache; yields it with the job's final view,
    then drains it with SIGTERM (exit 0)."""
    job_id = _job_id(request)
    with Daemon(c.tmp, f"{tag}-a", *_serve_args(c, tag)) as daemon:
        submitted = daemon.client.submit(request["kind"], request["params"])
        c.check(
            submitted["id"] == job_id,
            "served job id differs from the content-derived id computed "
            "locally",
        )

        def leased() -> Any:
            view = daemon.client.job(job_id)
            return view["state"] != "queued" and view

        # The lease is journaled before the executor starts: once the
        # job leaves the queue, SIGKILL lands with it in flight.
        view = wait_for(leased, JOB_TIMEOUT, "job leaving 'queued'")
        daemon.kill()
    c.step("daemon SIGKILLed", f"{tag} job was {view['state']!r}")
    with Daemon(c.tmp, f"{tag}-b", *_serve_args(c, tag)) as daemon:
        final = daemon.client.wait(job_id, timeout_s=JOB_TIMEOUT)
        c.check(
            final["state"] == "done",
            f"job ended {final['state']!r} after restart (error: "
            f"{final.get('error')})",
        )
        yield daemon, final
        code = daemon.terminate()
        c.check(code == 0, f"graceful drain exited {code} (want 0)")


def daemon_restart(c: Campaign) -> str:
    """SIGKILL the daemon mid-sweep; the restart finishes the job once."""
    with _killed_mid_job(c, "sweep", _sweep_request(c)) as (_, final):
        counts = JobJournal.terminal_counts(_journal(c, "sweep"))
        verdict = c.verdict(
            [_canonical(final.get("result"))],
            counts=counts,
            keys=[final["id"]],
        )
    return (
        f"state={final['state']}, terminal x{counts.get(final['id'], 0)}, "
        f"{verdict}"
    )


def torn_journal(c: Campaign) -> str:
    """Tear the drained daemon's journal mid-append, then restart it."""
    journal = _journal(c, "sweep")
    job_id = _job_id(_sweep_request(c))
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"ev": "submit", "job": {"id": "torn-mid')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        replay = JobJournal.terminal_counts(journal)
    warned = any("truncated" in str(w.message) for w in caught)
    c.check(
        warned, "the truncated line was dropped silently (expected a warning)"
    )
    c.check(
        replay.get(job_id) == 1,
        "the tear corrupted prior terminal events",
    )
    with Daemon(c.tmp, "sweep-c", *_serve_args(c, "sweep")) as daemon:
        view = daemon.client.job(job_id)
        c.check(
            view["state"] == "done"
            and _canonical(view.get("result")) == c.expected[0],
            "restarted daemon no longer serves the job byte-identically",
        )
        code = daemon.terminate()
    c.check(code == 0, f"post-tear drain exited {code} (want 0)")
    return f"warned={warned}, replay intact, drain exit {code}"


def fig02_round_trip(c: Campaign) -> str:
    """The README quickstart through a daemon SIGKILL, then one frame of
    the ops view from the restarted daemon."""
    request = {
        "kind": "figure",
        "params": {"name": "fig02", "workloads": ["bfs"]},
    }
    reference = api_figure(**request["params"]).to_dict()
    with _killed_mid_job(c, "fig02", request) as (daemon, final):
        verdict = c.verdict(
            [_canonical(final.get("result"))],
            [_canonical(reference)],
            JobJournal.terminal_counts(_journal(c, "fig02")),
            [final["id"]],
        )
        top = subprocess.run(
            [sys.executable, "-m", "repro.harness", "top", "--url",
             daemon.base_url, "--once", "--plain"],
            capture_output=True, text=True, timeout=60,
        )
        lines = top.stdout.splitlines()
        c.check(
            top.returncode == 0
            and any(line.startswith("serve ") for line in lines),
            f"`top --url --once --plain` exited {top.returncode} without a "
            f"serve line: {top.stdout}{top.stderr}",
        )
    return f"fig02 {verdict}, top frame exit {top.returncode}"


@contextmanager
def serve_app(
    c: Campaign,
    tag: str,
    run_job: Callable[[Job], Any],
    http: bool = False,
    **config: Any,
) -> Iterator[Tuple[ServeApp, Optional[ServeClient]]]:
    """An in-process :class:`ServeApp` on ``run_job``, started on a fresh
    journal and, with ``http``, behind its HTTP server (the client is
    None without); closed on exit."""
    app = ServeApp(
        ServeConfig(journal=_journal(c, tag), **config), run_job=run_job
    )
    app.start()
    httpd = client = None
    if http:
        httpd = make_server(app)
        threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        ).start()
        client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        yield app, client
    finally:
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        app.close()


def lease_expiry(c: Campaign) -> str:
    """An executor wedged past its lease: the retry commits, the late
    result is fenced off."""
    attempts_seen = []
    unwedge = threading.Event()

    def wedging_run_job(job: Job) -> Any:
        attempts_seen.append(1)
        if len(attempts_seen) == 1:
            # Attempt 1 wedges well past its lease; its eventual
            # result must be fenced off by the lease table.
            unwedge.wait(timeout=10.0)
            return {"from": "wedged-attempt"}
        return {"from": "healthy-retry"}

    with serve_app(
        c, "lease", wedging_run_job,
        deadline_s=0.15, tick_s=0.01, max_attempts=3, slots=2,
    ) as (app, _):
        _, body = app.submit({"kind": "figure", "params": {"name": "fig02"}})
        job_id = body["id"]
        wait_for(
            lambda: app.job_view(job_id)["state"] in TERMINAL_STATES,
            30.0,
            "terminal state for the job",
        )
        unwedge.set()  # the late result must be dropped
        time.sleep(0.1)
        view = app.job_view(job_id)
        c.check(
            view["state"] == "done",
            f"retry ended {view['state']!r} (error: {view.get('error')})",
        ) and c.check(
            view["result"] == {"from": "healthy-retry"},
            "the wedged attempt's result leaked through the fence",
        )
        c.check(
            view["attempts"] >= 2,
            "the lease never expired (attempt 1 was allowed to finish)",
        )
        c.once(JobJournal.terminal_counts(app.config.journal), [job_id])
        expirations = app.ledger.leases.expired_total
    return (
        f"attempts={view['attempts']}, expirations={expirations}, result "
        f"from {(view.get('result') or {}).get('from')!r}"
    )


def _refusal(client: ServeClient, cores: int) -> Optional[ServeHTTPError]:
    """Submit a simulate job; the HTTP error it met (None: admitted)."""
    try:
        client.submit(
            "simulate",
            {
                "config": {
                    "preset": "naive",
                    "overrides": {"num_cores": cores},
                },
                "workload": "bfs",
            },
        )
    except ServeHTTPError as exc:
        return exc
    return None


def admission_flood(c: Campaign) -> str:
    """Flood past the high-water mark (429), then drain (503, exit)."""
    gate = threading.Event()

    def gated_run_job(job: Job) -> Any:
        gate.wait(timeout=30.0)
        return {"ok": True}

    high_water = 3
    with serve_app(
        c, "flood", gated_run_job, http=True,
        high_water=high_water, slots=1, tick_s=0.01,
    ) as (app, client):
        refusals = [
            _refusal(client, cores) for cores in range(1, 2 * high_water + 1)
        ]
        statuses = [201 if exc is None else exc.status for exc in refusals]
        c.check(
            all(exc.retry_after_s is not None for exc in refusals
                if exc is not None and exc.status == 429),
            "429 carried no Retry-After hint",
        )
        admitted, shed = statuses.count(201), statuses.count(429)
        c.check(
            admitted == high_water,
            f"{admitted} admitted (want exactly {high_water} = high-water)",
        )
        c.check(
            shed == len(statuses) - high_water,
            f"{shed} shed with 429 (want {len(statuses) - high_water})",
        )
        c.check(
            set(statuses) <= {201, 429},
            f"unexpected statuses {sorted(set(statuses))}",
        )
        # Open the gate and let every admitted job finish (draining
        # stops the dispatcher, so still-queued jobs would otherwise
        # wait for the next incarnation — the daemon scenarios test
        # that).
        gate.set()

        def all_done() -> bool:
            views = app.jobs_view()
            return bool(views) and all(v["state"] == "done" for v in views)

        wait_for(all_done, 30.0, "finish of every admitted job")
        # Drain: new submissions (even duplicates of known jobs) must
        # get 503, and the daemon must exit clean.
        app.begin_drain()
        refused = _refusal(client, 1)
        c.check(
            refused is not None and refused.status == 503,
            f"submission during drain got "
            f"{refused.status if refused else 201} (want 503)",
        )
        requeued = app.drain(grace_s=10.0)
    c.check(
        requeued == 0,
        f"{requeued} job(s) re-queued despite the open gate (grace period "
        "too tight?)",
    )
    counts = JobJournal.terminal_counts(app.config.journal)
    once = c.once(counts, counts)
    c.check(
        len(counts) == admitted,
        f"terminal counts {dict(counts)} do not show every admitted job",
    )
    return (
        f"{admitted} admitted, {shed} x 429, drain requeued {requeued}, "
        f"terminal-once={once}"
    )


SCENARIOS: Dict[str, Scenario] = {
    "daemon restart": daemon_restart,
    "torn journal": torn_journal,
    "fig02 round trip": fig02_round_trip,
    "lease expiry": lease_expiry,
    "admission flood": admission_flood,
}


def run_server_campaign(**params: Any) -> int:
    """Execute the server campaign; returns the process exit code."""
    c = Campaign("chaos[server]", **params)
    return c.run(
        SCENARIOS,
        "baseline",
        f"sweep over {_workloads(c)}, serial, in-process",
        lambda: [_baseline_result(_sweep_request(c))],
        lambda: f"seed {c.seed}, workloads {_workloads(c)}",
    )
