"""Lease fencing under races: exactly one terminal state, ever.

The serve dispatcher's exactly-once guarantee rests on one gate: an
executor may only commit its outcome while it still holds the lease it
was granted.  These tests race that gate the two ways real
infrastructure does —

- **concurrent duplicate completions**: the wedged first attempt and
  its healthy retry finish at the same instant and race into the
  commit path; and
- **stale-attempt push**: the wedged first attempt finishes *after*
  the retry already committed.

In both cases exactly one outcome must land (the one holding the live
lease), the loser must be discarded and counted in
``serve_stale_results_total``, and the journal must show exactly one
terminal event for the job.
"""

from __future__ import annotations

import threading
import time

from repro.prof.registry import MetricsRegistry
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.journal import JobJournal

FIG_REQUEST = {"kind": "figure", "params": {"name": "fig02"}}


def _app(tmp_path, run_job, **overrides):
    defaults = dict(
        journal=str(tmp_path / "journal.jsonl"),
        tick_s=0.005,
        slots=2,
        deadline_s=0.15,
        max_attempts=3,
    )
    defaults.update(overrides)
    return ServeApp(
        ServeConfig(**defaults),
        registry=MetricsRegistry(),
        run_job=run_job,
    )


def _wait(predicate, timeout_s=20.0, message="condition never held"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(message)


def _stale_total(app):
    return app.registry.counter("serve_stale_results_total").value()


class TestConcurrentDuplicateCompletions:
    def test_racing_attempts_commit_exactly_once(self, tmp_path):
        """Attempt 1 (lease lost) and attempt 2 (lease live) finish at
        the same instant; only the live lease's outcome lands."""
        attempts = []
        second_running = threading.Event()
        release = threading.Event()

        def run_job(job):
            attempt = len(attempts) + 1
            attempts.append(attempt)
            if attempt == 2:
                second_running.set()
            # Both attempts block here: attempt 1 wedges past the TTL
            # (losing its lease to expiry), attempt 2 joins it, and
            # then both are released into the commit path together.
            release.wait(timeout=10.0)
            return {"attempt": attempt}

        app = _app(tmp_path, run_job)
        app.start()
        try:
            status, body = app.submit(FIG_REQUEST)
            assert status == 201
            job_id = body["id"]
            _wait(
                second_running.is_set,
                message="the lease never expired onto a second attempt",
            )
            release.set()
            _wait(
                lambda: app.job_view(job_id)["state"]
                in ("done", "failed"),
                message="job never reached a terminal state",
            )
            # Give the losing executor time to run into the fence.
            _wait(
                lambda: _stale_total(app) >= 1,
                timeout_s=5.0,
                message="the fenced attempt was never counted stale",
            )
            view = app.job_view(job_id)
            assert view["state"] == "done"
            assert view["result"] == {"attempt": 2}, (
                "the expired lease's result leaked through the fence"
            )
            assert view["attempts"] == 2
            assert _stale_total(app) == 1
        finally:
            app.close()
        counts = JobJournal.terminal_counts(app.config.journal)
        assert counts.get(job_id) == 1, (
            f"job terminal {counts.get(job_id, 0)} times (want exactly 1)"
        )


class TestStaleAttemptPush:
    def test_late_result_after_terminal_is_discarded(self, tmp_path):
        """The wedged attempt finishes long after the retry committed;
        its push must bounce off the fence, not overwrite the result."""
        first_blocked = threading.Event()

        def run_job(job):
            if len(calls) == 0:
                calls.append(1)
                first_blocked.wait(timeout=10.0)
                return {"from": "wedged"}
            calls.append(2)
            return {"from": "retry"}

        calls = []
        app = _app(tmp_path, run_job)
        app.start()
        try:
            status, body = app.submit(FIG_REQUEST)
            job_id = body["id"]
            _wait(
                lambda: app.job_view(job_id)["state"] == "done",
                message="the retry never completed",
            )
            before = app.job_view(job_id)
            assert before["result"] == {"from": "retry"}
            assert _stale_total(app) == 0
            # Unwedge attempt 1: its (stale) outcome arrives after the
            # job is already terminal.
            first_blocked.set()
            _wait(
                lambda: _stale_total(app) >= 1,
                timeout_s=5.0,
                message="the late push was never counted stale",
            )
            after = app.job_view(job_id)
            assert after["state"] == "done"
            assert after["result"] == {"from": "retry"}, (
                "a stale push overwrote the committed result"
            )
            assert _stale_total(app) == 1
        finally:
            app.close()
        counts = JobJournal.terminal_counts(app.config.journal)
        assert counts.get(job_id) == 1
