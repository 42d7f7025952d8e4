"""ServeApp end to end: submit, dedup, drain, restart, degrade.

Most tests drive the app object directly with an injected executor (no
sockets, no real simulations) so they run in milliseconds; one test
goes through the real HTTP stack with a real tiny simulation to pin
the full path, and a few more pin the HTTP layer's framing and latency
over real sockets.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.prof.registry import MetricsRegistry
from repro.serve.app import ServeApp, ServeConfig, make_server
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.journal import JobJournal

FIG_REQUEST = {"kind": "figure", "params": {"name": "fig02"}}


def _request(num_cores=1):
    return {
        "kind": "simulate",
        "params": {
            "config": {
                "preset": "naive",
                "overrides": {
                    "num_cores": num_cores,
                    "warps_per_core": 8,
                    "warp_width": 8,
                },
            },
            "workload": "bfs",
        },
    }


def _app(tmp_path, run_job, **overrides):
    defaults = dict(
        journal=str(tmp_path / "journal.jsonl"),
        tick_s=0.005,
        slots=2,
    )
    defaults.update(overrides)
    return ServeApp(
        ServeConfig(**defaults),
        registry=MetricsRegistry(),
        run_job=run_job,
    )


def _wait_terminal(app, job_id, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = app.job_view(job_id)
        if view["state"] in ("done", "failed"):
            return view
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _serve_http(app):
    """Serve ``app`` over real HTTP on a free port (caller shuts down)."""
    httpd = make_server(app)
    threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    ).start()
    return httpd


class TestSubmit:
    def test_submit_runs_to_done(self, tmp_path):
        app = _app(tmp_path, lambda job: {"answer": 42})
        app.start()
        try:
            status, body = app.submit(_request())
            assert status == 201
            view = _wait_terminal(app, body["id"])
            assert view["state"] == "done"
            assert view["result"] == {"answer": 42}
            assert view["attempts"] == 1
        finally:
            app.close()

    def test_duplicate_submit_returns_the_existing_job(self, tmp_path):
        calls = []

        def run(job):
            calls.append(job.id)
            return {"ok": True}

        app = _app(tmp_path, run)
        app.start()
        try:
            status1, body1 = app.submit(_request())
            _wait_terminal(app, body1["id"])
            status2, body2 = app.submit(_request())
            assert (status1, status2) == (201, 200)
            assert body1["id"] == body2["id"]
            assert calls == [body1["id"]]  # executed exactly once
        finally:
            app.close()

    def test_invalid_request_is_400_and_never_journaled(self, tmp_path):
        app = _app(tmp_path, lambda job: None)
        app.start()
        try:
            status, body = app.submit({"kind": "simulate", "params": {}})
            assert status == 400 and "error" in body
        finally:
            app.close()
        assert JobJournal(app.config.journal).replayed.entries == {}

    def test_high_water_sheds_with_429(self, tmp_path):
        gate = threading.Event()
        app = _app(
            tmp_path, lambda job: gate.wait(10) and {}, high_water=2, slots=1
        )
        app.start()
        try:
            statuses = [app.submit(_request(n))[0] for n in range(1, 5)]
            assert statuses == [201, 201, 429, 429]
        finally:
            gate.set()
            app.close()


class TestFailure:
    def test_structured_error_fails_terminally(self, tmp_path):
        def run(job):
            raise ValueError("the machine caught fire")

        app = _app(tmp_path, run)
        app.start()
        try:
            _status, body = app.submit(_request())
            view = _wait_terminal(app, body["id"])
            assert view["state"] == "failed"
            assert view["error"]["type"] == "ValueError"
            assert "fire" in view["error"]["message"]
        finally:
            app.close()
        counts = JobJournal.terminal_counts(app.config.journal)
        assert counts == {body["id"]: 1}


class TestLeaseExpiry:
    def test_wedged_executor_exhausts_attempts_and_fails(self, tmp_path):
        release = threading.Event()
        app = _app(
            tmp_path,
            lambda job: release.wait(30),
            deadline_s=0.03,
            max_attempts=2,
        )
        app.start()
        try:
            _status, body = app.submit(_request())
            view = _wait_terminal(app, body["id"])
            assert view["state"] == "failed"
            assert view["error"]["type"] == "LeaseExpired"
            assert view["attempts"] == 2
        finally:
            release.set()
            app.close()
        assert JobJournal.terminal_counts(app.config.journal) == {
            body["id"]: 1
        }

    def test_expiry_requeues_and_the_retry_wins(self, tmp_path):
        release = threading.Event()
        attempts = []

        def run(job):
            attempts.append(len(attempts) + 1)
            if len(attempts) == 1:
                release.wait(30)  # wedge attempt 1 past the TTL
                return {"from": "wedged"}
            return {"from": "retry"}

        app = _app(tmp_path, run, deadline_s=0.03, max_attempts=3)
        app.start()
        try:
            _status, body = app.submit(_request())
            view = _wait_terminal(app, body["id"])
            release.set()  # the late wedged result must be fenced off
            time.sleep(0.05)
            final = app.job_view(body["id"])
            assert view["state"] == "done"
            assert final["result"] == {"from": "retry"}
        finally:
            release.set()
            app.close()
        assert JobJournal.terminal_counts(app.config.journal) == {
            body["id"]: 1
        }


class TestLeaseLastsTheDeadline:
    @staticmethod
    def _skewed_app(tmp_path, skew, calls, **overrides):
        """An app whose monotonic clock jumps 300 s each time its job
        runs: past any fixed lease a healthy job might outlive."""

        def run(job):
            calls.append(job.id)
            skew[0] += 300.0
            time.sleep(0.1)  # dispatcher ticks see the jumped clock
            return {"ok": True}

        config = dict(
            journal=str(tmp_path / "journal.jsonl"), tick_s=0.005, slots=2
        )
        config.update(overrides)
        return ServeApp(
            ServeConfig(**config),
            registry=MetricsRegistry(),
            clock=lambda: time.monotonic() + skew[0],
            run_job=run,
        )

    def test_healthy_job_within_its_deadline_runs_once(self, tmp_path):
        skew, calls = [0.0], []
        app = self._skewed_app(tmp_path, skew, calls)  # deadline 600 s
        app.start()
        try:
            _status, body = app.submit(_request())
            view = _wait_terminal(app, body["id"])
            assert view["state"] == "done"
            assert view["attempts"] == 1
            assert calls == [body["id"]]
        finally:
            app.close()

    def test_job_without_deadline_holds_its_lease(self, tmp_path):
        skew, calls = [0.0], []
        app = self._skewed_app(tmp_path, skew, calls, deadline_s=None)
        app.start()
        try:
            _status, body = app.submit(_request())
            view = _wait_terminal(app, body["id"])
            assert (view["state"], view["attempts"]) == ("done", 1)
            assert calls == [body["id"]]
        finally:
            app.close()

        def strict(constant):
            raise ValueError(f"journal holds {constant}")

        with open(app.config.journal, encoding="utf-8") as handle:
            events = [json.loads(line, parse_constant=strict) for line in handle]
        leases = [event for event in events if event["ev"] == "lease"]
        assert [event["expires_unix"] for event in leases] == [None]


class TestDrain:
    def test_drain_requeues_in_flight_and_restart_finishes(self, tmp_path):
        # Lease held past the drain grace: the job must be re-queued
        # into the journal and the next incarnation must finish it —
        # terminal exactly once across both lifetimes.
        wedge = threading.Event()
        app = _app(tmp_path, lambda job: wedge.wait(30) and {}, slots=1)
        app.start()
        _status, body = app.submit(_request())
        deadline = time.monotonic() + 10
        while app.job_view(body["id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        requeued = app.drain(grace_s=0.05)
        wedge.set()
        assert requeued == 1
        replayed = JobJournal(app.config.journal).replayed
        assert replayed.entries[body["id"]].state == "queued"

        app2 = _app(tmp_path, lambda job: {"finished": "second-life"})
        app2.start()
        try:
            view = _wait_terminal(app2, body["id"])
            assert view["state"] == "done"
            assert view["result"] == {"finished": "second-life"}
        finally:
            app2.close()
        assert JobJournal.terminal_counts(app2.config.journal) == {
            body["id"]: 1
        }

    def test_drain_refuses_new_submissions(self, tmp_path):
        app = _app(tmp_path, lambda job: {})
        app.start()
        app.begin_drain()
        status, body = app.submit(_request())
        assert status == 503
        app.drain(grace_s=0.01)

    def test_drain_with_idle_queue_requeues_nothing(self, tmp_path):
        app = _app(tmp_path, lambda job: {"ok": 1})
        app.start()
        _status, body = app.submit(_request())
        _wait_terminal(app, body["id"])
        assert app.drain(grace_s=0.5) == 0


class TestRestartReplay:
    def test_done_jobs_are_served_without_re_execution(self, tmp_path):
        app = _app(tmp_path, lambda job: {"cycles": 1234})
        app.start()
        _status, body = app.submit(_request())
        done = _wait_terminal(app, body["id"])
        app.drain(grace_s=1.0)

        def boom(job):
            raise AssertionError("terminal job was re-executed on replay")

        app2 = _app(tmp_path, boom)
        app2.start()
        try:
            view = app2.job_view(body["id"])
            assert view["state"] == "done"
            assert json.dumps(view["result"], sort_keys=True) == json.dumps(
                done["result"], sort_keys=True
            )
            # Dedup also holds across the restart.
            status, dup = app2.submit(_request())
            assert status == 200 and dup["id"] == body["id"]
            time.sleep(0.05)  # give a buggy dispatcher time to misfire
        finally:
            app2.close()

    def test_interrupted_job_is_recovered_on_restart(self, tmp_path):
        # Simulate a SIGKILL mid-lease: journal a submit + lease with
        # no terminal event, then boot an app on that journal.
        journal_path = str(tmp_path / "journal.jsonl")
        from repro.serve.jobs import Job, normalize_request

        job = Job.from_request(normalize_request(_request()))
        with JobJournal(journal_path) as journal:
            journal.record_entry(job)
            journal.record_lease(job.id, 1, expires_unix=0.0)
        app = _app(tmp_path, lambda j: {"recovered": True})
        app.start()
        try:
            view = _wait_terminal(app, job.id)
            assert view["state"] == "done"
            assert view["result"] == {"recovered": True}
        finally:
            app.close()
        assert JobJournal.terminal_counts(journal_path) == {job.id: 1}


class TestReadyz:
    def test_flips_to_degraded_under_slot_shrink(self, tmp_path):
        app = _app(tmp_path, lambda job: {}, slots=3)
        app.start()
        try:
            code, body = app.readyz_view()
            assert (code, body["state"]) == (200, "ready")
            # Two consecutive infrastructure failures shrink one slot.
            app.health.on_crash()
            app.health.on_crash()
            code, body = app.readyz_view()
            assert code == 200  # degraded is still routable
            assert body["state"] == "degraded"
            assert body["slots"] == 2
            # A success resets the streak; shrink floor is 1 slot.
            for _ in range(10):
                app.health.on_crash()
            code, body = app.readyz_view()
            assert body["slots"] == 1
            assert body["state"] == "degraded"
        finally:
            app.close()

    def test_draining_is_not_ready(self, tmp_path):
        app = _app(tmp_path, lambda job: {})
        app.start()
        app.begin_drain()
        code, body = app.readyz_view()
        assert code == 503 and body["state"] == "draining"
        app.drain(grace_s=0.01)


class TestHTTP:
    def test_full_stack_with_a_real_simulation(self, tmp_path):
        app = ServeApp(
            ServeConfig(
                journal=str(tmp_path / "journal.jsonl"),
                cache=str(tmp_path / "cache"),
                tick_s=0.005,
            ),
            registry=MetricsRegistry(),
        )
        app.start()
        httpd = _serve_http(app)
        client = ServeClient(
            f"http://127.0.0.1:{httpd.server_address[1]}"
        )
        try:
            assert client.healthz() == {"status": "alive"}
            assert client.readyz()["ready"] is True
            request = _request()
            job = client.submit(request["kind"], request["params"])
            done = client.wait(job["id"], timeout_s=60)
            assert done["state"] == "done"
            assert done["result"]["workload"] == "bfs"
            assert done["result"]["cycles"] > 0
            with pytest.raises(ServeHTTPError) as excinfo:
                client.job("jdoesnotexist")
            assert excinfo.value.status == 404
            metrics = client.metrics_text()
            assert 'serve_jobs_terminal_total{state="done"} 1' in metrics
            assert "serve_http_requests_total" in metrics
            assert [j["id"] for j in client.jobs()] == [job["id"]]
        finally:
            httpd.shutdown()
            httpd.server_close()
            app.drain(grace_s=1.0)

    def test_keep_alive_round_trips_do_not_stall(self, tmp_path):
        # Headers and body leave in two writes.  With Nagle's algorithm
        # on, a keep-alive client gets each body only after its delayed
        # ACK (~40 ms a request).
        app = _app(tmp_path, lambda job: {})
        app.start()
        httpd = _serve_http(app)
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=5
        )
        try:
            started = time.monotonic()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "alive"}
            elapsed = time.monotonic() - started
        finally:
            conn.close()
            httpd.shutdown()
            httpd.server_close()
            app.close()
        assert elapsed < 0.5, f"20 keep-alive requests took {elapsed:.3f}s"

    @pytest.mark.parametrize(
        "length, status", [("-1", 400), ("99999999999", 413), ("ten", 400)]
    )
    def test_bad_content_length_is_answered(self, tmp_path, length, status):
        # Trusted, -1 would block the handler until the client hangs up
        # and 99999999999 would raise MemoryError before any response.
        app = _app(tmp_path, lambda job: {})
        app.start()
        httpd = _serve_http(app)
        try:
            with socket.create_connection(
                ("127.0.0.1", httpd.server_address[1]), timeout=1.0
            ) as sock:
                sock.sendall(
                    "POST /jobs HTTP/1.1\r\nHost: test\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode("ascii")
                )
                status_line = sock.makefile("rb").readline()
        finally:
            httpd.shutdown()
            httpd.server_close()
            app.close()
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode("ascii"))


class TestWakeUp:
    """The dispatcher leases on admission and on completion; its tick
    only drives lease expiry and backoff.  A 5 s tick makes any missed
    wake-up show as a multi-second stall."""

    def test_submit_is_leased_without_waiting_for_the_tick(self, tmp_path):
        app = _app(tmp_path, lambda job: {"ok": True}, tick_s=5.0)
        app.start()
        try:
            time.sleep(0.05)  # let the dispatcher reach its idle wait
            _status, body = app.submit(_request())
            view = _wait_terminal(app, body["id"], timeout_s=1.0)
            assert view["state"] == "done"
        finally:
            app.close()

    def test_wake_up_during_a_tick_is_not_lost(self, tmp_path):
        # A submit that lands after the tick scanned the queue: the
        # event must still be set when the dispatcher goes to wait.
        app = _app(tmp_path, lambda job: {"ok": True}, tick_s=5.0)
        tick = app._tick
        submitted = []

        def tick_then_submit():
            tick()
            if not submitted:
                submitted.append(app.submit(_request())[1]["id"])

        app._tick = tick_then_submit
        app.start()
        try:
            deadline = time.monotonic() + 1.0
            while not submitted and time.monotonic() < deadline:
                time.sleep(0.005)
            assert submitted
            view = _wait_terminal(app, submitted[0], timeout_s=1.0)
            assert view["state"] == "done"
        finally:
            app.close()

    def test_finished_job_hands_its_slot_to_the_next(self, tmp_path):
        first_running = threading.Event()
        release = threading.Event()
        started, finished = {}, {}

        def run(job):
            started[job.id] = time.monotonic()
            if len(started) == 1:
                first_running.set()
                release.wait(10)
            finished[job.id] = time.monotonic()
            return {"ok": True}

        app = _app(tmp_path, run, slots=1, tick_s=5.0)
        app.start()
        try:
            _status, first = app.submit(_request(1))
            assert first_running.wait(10)
            _status, second = app.submit(_request(2))
            time.sleep(0.05)  # the second job waits for the only slot
            assert app.job_view(second["id"])["state"] == "queued"
            release.set()
            _wait_terminal(app, second["id"], timeout_s=10.0)
        finally:
            release.set()
            app.close()
        hand_off = started[second["id"]] - finished[first["id"]]
        assert hand_off < 1.0, f"slot idled {hand_off:.2f}s after a job"

    def test_concurrent_submitters_lose_no_wake_up(self, tmp_path):
        def run(job):
            time.sleep(0.001)
            return {"id": job.id}

        app = _app(tmp_path, run, tick_s=5.0)
        ids = []
        ids_lock = threading.Lock()

        def submitter(first_core):
            for cores in range(first_core, first_core + 5):
                status, body = app.submit(_request(cores))
                assert status == 201
                with ids_lock:
                    ids.append(body["id"])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        app.start()
        try:
            started = time.monotonic()
            threads = [
                threading.Thread(target=submitter, args=(1 + 5 * k,))
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(ids) == 40
            for job_id in ids:
                remaining = 5.0 - (time.monotonic() - started)
                view = _wait_terminal(app, job_id, max(0.0, remaining))
                assert view["state"] == "done"
        finally:
            sys.setswitchinterval(previous)
            app.close()
        assert JobJournal.terminal_counts(app.config.journal) == {
            job_id: 1 for job_id in ids
        }


class TestMetricsEngineLabel:
    def test_sim_series_carry_engine_label(self, tmp_path):
        """A production app (default registry) exposes the mirrored
        sim_* counters on /metrics with an engine label attached."""
        from repro.prof.registry import REGISTRY

        app = ServeApp(
            ServeConfig(
                journal=str(tmp_path / "journal.jsonl"), tick_s=0.005
            )
        )
        assert app.registry is REGISTRY
        app.start()
        try:
            before = REGISTRY.counter("sim_cycles").value(engine="event")
            code, body = app.submit(_request())
            assert code == 201
            done = _wait_terminal(app, body["id"])
            assert done["state"] == "done"
            after = REGISTRY.counter("sim_cycles").value(engine="event")
            assert after > before
            assert 'sim_cycles{engine="event"}' in app.metrics_text()
        finally:
            app.drain(grace_s=1.0)
