"""The server half of the chaos campaign: attack ``repro.serve``.

``python -m repro.harness chaos --server`` points the same seeded
adversary at the daemon instead of the sweep pool:

1. **daemon SIGKILL mid-sweep** — a real ``python -m repro.serve``
   subprocess is killed (SIGKILL, no cleanup) while a sweep job is
   running; a restart on the same journal must re-queue the
   interrupted job, run it to ``done`` exactly once, and serve a
   result byte-identical to an uninterrupted in-process run.
2. **torn journal** — the dead server's journal gets a half-written
   final line appended (a crash mid-``write``); replay must drop
   exactly that line with a warning and the restarted daemon must
   still serve every prior job.
3. **lease expiry** — an executor that wedges past the lease TTL is
   presumed dead: the job is re-queued with backoff, the retry
   succeeds, and the wedged executor's late result is fenced off —
   terminal exactly once.
4. **admission flood** — submissions past the queue's high-water mark
   are shed with ``429`` (plus ``Retry-After``) while everything below
   it completes; during drain, new work gets ``503`` and the daemon
   exits 0 with a replayable journal.

Exit codes match :mod:`repro.harness.chaos`: 0 pass, 1 verification
failure.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings
from typing import Any, Dict, List, Optional

from repro.harness.chaos import Campaign, Daemon, terminal_once
from repro.serve.app import ServeApp, ServeConfig, make_server
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.jobs import Job, normalize_request
from repro.serve.journal import JobJournal

#: Wall-clock budget for a job to complete.
JOB_TIMEOUT = 120.0


def _sweep_request(
    workloads: List[str], engine: Optional[str] = None
) -> Dict[str, Any]:
    """The campaign's sweep job: tiny machines, a few cells."""
    tiny = {"num_cores": 1, "warps_per_core": 8, "warp_width": 8}
    request: Dict[str, Any] = {
        "kind": "sweep",
        "params": {
            "configs": {
                "base": {"preset": "no_tlb", "overrides": dict(tiny)},
                "aug": {"preset": "augmented", "overrides": dict(tiny)},
            },
            "workloads": workloads,
        },
    }
    if engine is not None:
        request["engine"] = engine
    return request


def _baseline_result(request: Dict[str, Any]) -> str:
    """The uninterrupted answer, canonical-JSON'd for byte comparison.

    Runs the job through the very same :meth:`ServeApp._run_job`
    mapping the daemon uses — serial, no cache — so any divergence in
    the served result is a recovery bug, not a harness artifact.
    """
    with tempfile.TemporaryDirectory(prefix="repro-chaos-base-") as tmp:
        config = ServeConfig(
            journal=os.path.join(tmp, "unused.jsonl"), cache=None
        )
        app = ServeApp(config)
        job = Job.from_request(normalize_request(request))
        result = app._run_job(job)
    return json.dumps(result, sort_keys=True)


def run_server_campaign(
    *,
    seed: int = 0,
    quick: bool = False,
    workloads: Optional[List[str]] = None,
    verbose: bool = False,
    engine: Optional[str] = None,
) -> int:
    """Execute the server campaign; returns the process exit code."""
    campaign = Campaign("chaos[server]", verbose)
    chosen = workloads or (["bfs"] if quick else ["bfs", "kmeans"])
    request = _sweep_request(chosen, engine)
    job_id = Job.from_request(normalize_request(request)).id

    campaign.step("baseline", f"sweep over {chosen}, serial, in-process")
    baseline = _baseline_result(request)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-serve-") as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        cache = os.path.join(tmp, "cache")
        serve_args = (
            "--journal", journal, "--cache", cache,
            "--slots", "2", "--drain-grace", "10",
        )

        # -- 1. daemon SIGKILL mid-sweep ------------------------------
        daemon = Daemon(tmp, "a", *serve_args)
        submitted = daemon.client.submit(
            request["kind"], request["params"]
        )
        if submitted["id"] != job_id:
            campaign.fail(
                "daemon kill: served job id differs from the "
                "content-derived id computed locally"
            )
        # Wait for the lease (journaled before the executor starts),
        # then SIGKILL with the sweep in flight.
        deadline = time.monotonic() + JOB_TIMEOUT
        while True:
            view = daemon.client.job(job_id)
            if view["state"] != "queued":
                break
            if time.monotonic() > deadline:
                campaign.fail("daemon kill: job never left 'queued'")
                break
            time.sleep(0.01)
        killed_state = view["state"]
        daemon.kill()
        campaign.step("daemon SIGKILLed", f"job was {killed_state!r}")

        # Restart on the same journal: the interrupted job must come
        # back queued, re-run, and finish exactly once.
        daemon = Daemon(tmp, "b", *serve_args)
        final = daemon.client.wait(job_id, timeout_s=JOB_TIMEOUT)
        recovered = None
        if final["state"] != "done":
            campaign.fail(
                f"daemon kill: job ended {final['state']!r} after "
                f"restart (error: {final.get('error')})"
            )
        else:
            recovered = json.dumps(final["result"], sort_keys=True)
            if recovered != baseline:
                campaign.fail(
                    "daemon kill: recovered result differs from the "
                    "uninterrupted baseline"
                )
        counts = JobJournal.terminal_counts(journal)
        complaint = terminal_once(counts, [job_id])
        if complaint:
            campaign.fail(f"daemon kill: {complaint}")
        campaign.step(
            "daemon restart",
            f"state={final['state']}, terminal x{counts.get(job_id, 0)}, "
            + (
                "identical"
                if final.get("state") == "done" and recovered == baseline
                else "MISMATCH"
            ),
        )

        # -- 2. torn journal ------------------------------------------
        # Drain this daemon cleanly, then emulate a crash mid-append.
        code = daemon.terminate()
        if code != 0:
            campaign.fail(
                f"torn journal: graceful drain exited {code} (want 0)"
            )
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "submit", "job": {"id": "torn-mid')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            replay = JobJournal.terminal_counts(journal)
        torn_warned = any("truncated" in str(w.message) for w in caught)
        if not torn_warned:
            campaign.fail(
                "torn journal: the truncated line was dropped silently "
                "(expected a warning)"
            )
        if terminal_once(replay, [job_id]):
            campaign.fail(
                "torn journal: the tear corrupted prior terminal events"
            )
        daemon = Daemon(tmp, "c", *serve_args)
        view = daemon.client.job(job_id)
        served = json.dumps(view.get("result"), sort_keys=True)
        if view["state"] != "done" or served != baseline:
            campaign.fail(
                "torn journal: restarted daemon no longer serves the "
                "job byte-identically"
            )
        code = daemon.terminate()
        if code != 0:
            campaign.fail(
                f"torn journal: post-tear drain exited {code} (want 0)"
            )
        campaign.step(
            "torn journal",
            f"warned={torn_warned}, replay intact, drain exit {code}",
        )

    # -- 3. lease expiry (in-process, injected executor) --------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-lease-") as tmp:
        attempts_seen: List[int] = []
        first_attempt_blocked = threading.Event()

        def wedging_run_job(job: Job) -> Any:
            attempts_seen.append(1)
            if len(attempts_seen) == 1:
                # Attempt 1 wedges well past its lease; its eventual
                # result must be fenced off by the lease table.
                first_attempt_blocked.wait(timeout=10.0)
                return {"from": "wedged-attempt"}
            return {"from": "healthy-retry"}

        app = ServeApp(
            ServeConfig(
                journal=os.path.join(tmp, "journal.jsonl"),
                deadline_s=0.15,
                tick_s=0.01,
                max_attempts=3,
                slots=2,
            ),
            run_job=wedging_run_job,
        )
        app.start()
        status, body = app.submit(
            {"kind": "figure", "params": {"name": "fig02"}}
        )
        lease_job = body["id"]
        deadline = time.monotonic() + 30.0
        while True:
            view = app.job_view(lease_job)
            if view["state"] in ("done", "failed"):
                break
            if time.monotonic() > deadline:
                campaign.fail("lease expiry: job never reached terminal")
                break
            time.sleep(0.01)
        first_attempt_blocked.set()  # unwedge; late result must be dropped
        time.sleep(0.1)
        final_view = app.job_view(lease_job)
        expirations = app.ledger.leases.expired_total
        if final_view["state"] != "done":
            campaign.fail(
                f"lease expiry: retry ended {final_view['state']!r} "
                f"(error: {final_view.get('error')})"
            )
        elif final_view["result"] != {"from": "healthy-retry"}:
            campaign.fail(
                "lease expiry: the wedged attempt's result leaked "
                "through the fence"
            )
        if final_view["attempts"] < 2:
            campaign.fail(
                "lease expiry: the lease never expired (attempt 1 "
                "was allowed to finish)"
            )
        complaint = terminal_once(
            JobJournal.terminal_counts(app.config.journal), [lease_job]
        )
        if complaint:
            campaign.fail(f"lease expiry: {complaint}")
        app.drain(grace_s=1.0)
        campaign.step(
            "lease expiry",
            f"attempts={final_view['attempts']}, "
            f"expirations={expirations}, result from "
            f"{(final_view.get('result') or {}).get('from')!r}",
        )

    # -- 4. admission flood + drain 503 -------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-flood-") as tmp:
        gate = threading.Event()

        def gated_run_job(job: Job) -> Any:
            gate.wait(timeout=30.0)
            return {"ok": True}

        high_water = 3
        app = ServeApp(
            ServeConfig(
                journal=os.path.join(tmp, "journal.jsonl"),
                high_water=high_water,
                slots=1,
                tick_s=0.01,
            ),
            run_job=gated_run_job,
        )
        app.start()
        httpd = make_server(app)
        thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServeClient(
            f"http://127.0.0.1:{httpd.server_address[1]}"
        )
        statuses: List[int] = []
        flood = 2 * high_water
        for index in range(flood):
            try:
                client.submit(
                    "simulate",
                    {
                        "config": {
                            "preset": "naive",
                            "overrides": {"num_cores": 1 + index},
                        },
                        "workload": "bfs",
                    },
                )
                statuses.append(201)
            except ServeHTTPError as exc:
                statuses.append(exc.status)
                if exc.status == 429 and exc.retry_after_s is None:
                    campaign.fail(
                        "admission flood: 429 carried no Retry-After hint"
                    )
        admitted = statuses.count(201)
        shed = statuses.count(429)
        if admitted != high_water:
            campaign.fail(
                f"admission flood: {admitted} admitted (want exactly "
                f"{high_water} = high-water)"
            )
        if shed != flood - high_water:
            campaign.fail(
                f"admission flood: {shed} shed with 429 (want "
                f"{flood - high_water})"
            )
        if any(code not in (201, 429) for code in statuses):
            campaign.fail(
                f"admission flood: unexpected statuses {sorted(set(statuses))}"
            )
        # Open the gate and let every admitted job finish (draining
        # stops the dispatcher, so still-queued jobs would otherwise
        # wait for the next incarnation — tested in scenario 1).
        gate.set()
        deadline = time.monotonic() + 30.0
        while True:
            views = app.jobs_view()
            if views and all(v["state"] == "done" for v in views):
                break
            if time.monotonic() > deadline:
                campaign.fail(
                    "admission flood: admitted jobs never all finished"
                )
                break
            time.sleep(0.02)
        # Drain: new submissions (even duplicates of known jobs) must
        # get 503, and the daemon must exit clean.
        app.begin_drain()
        try:
            client.submit(
                "simulate",
                {
                    "config": {"preset": "naive", "overrides": {"num_cores": 1}},
                    "workload": "bfs",
                },
            )
            campaign.fail("drain: submission during drain was not 503")
        except ServeHTTPError as exc:
            if exc.status != 503:
                campaign.fail(
                    f"drain: submission during drain got {exc.status} "
                    "(want 503)"
                )
        requeued = app.drain(grace_s=10.0)
        httpd.shutdown()
        httpd.server_close()
        if requeued != 0:
            campaign.fail(
                f"drain: {requeued} job(s) re-queued despite the open "
                "gate (grace period too tight?)"
            )
        counts = JobJournal.terminal_counts(app.config.journal)
        once = terminal_once(counts, counts) is None
        if len(counts) != admitted or not once:
            campaign.fail(
                f"drain: terminal counts {dict(counts)} do not show "
                f"every admitted job exactly once"
            )
        campaign.step(
            "admission flood",
            f"{admitted} admitted, {shed} x 429, drain requeued "
            f"{requeued}, terminal-once={once}",
        )

    return campaign.exit_code(f"seed {seed}, workloads {chosen}")
