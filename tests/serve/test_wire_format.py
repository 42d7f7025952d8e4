"""The serve daemon's wire format, pinned route by route.

Every route the HTTP layer answers is exercised over a real socket on
a fixed app state — a fake monotonic clock, ``time.time`` pinned, a
fake executor and a private registry — and each answer's status,
``Content-Type`` and body must equal its entry in
``golden/routes.json``.  A change to ``serve/app.py`` that moves any
byte a client reads fails here, one test id per exchange.

To regenerate the golden file after a deliberate wire-format change::

    PYTHONPATH=src python tests/serve/test_wire_format.py
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import pathlib
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import pytest

from repro.prof.registry import MetricsRegistry
from repro.serve import app as app_module
from repro.serve.app import ServeApp, ServeConfig, make_server
from repro.serve.jobs import Job

GOLDEN = pathlib.Path(__file__).parent / "golden" / "routes.json"

#: Wall-clock second every ``time.time()`` call answers with.
PINNED_UNIX = 1_700_000_000.0

REQUEST = {
    "kind": "simulate",
    "params": {
        "config": {
            "preset": "naive",
            "overrides": {"num_cores": 1, "warps_per_core": 8, "warp_width": 8},
        },
        "workload": "bfs",
    },
}


@dataclasses.dataclass
class _PinnedJob(Job):
    """``Job`` whose submit time reads ``time.time`` at call time (the
    base class bound the unpatched function when it was defined)."""

    submitted_unix: float = dataclasses.field(
        default_factory=lambda: time.time()
    )


@contextmanager
def _pinned_daemon(directory: pathlib.Path) -> Iterator[tuple]:
    """A started app behind a real HTTP server, clocks pinned."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(time, "time", lambda: PINNED_UNIX)
        patch.setattr(app_module, "Job", _PinnedJob)
        app = ServeApp(
            ServeConfig(journal=str(directory / "journal.jsonl"), tick_s=0.005),
            registry=MetricsRegistry(),
            clock=lambda: 100.0,
            run_job=lambda job: {"answer": 42},
        )
        app.start()
        httpd = make_server(app)
        threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        ).start()
        try:
            yield app, httpd.server_address[1]
        finally:
            httpd.shutdown()
            httpd.server_close()
            app.close()


def _exchange(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    content_length: Optional[str] = None,
) -> Dict[str, object]:
    """One request on a fresh connection; the answer as recorded."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.putrequest(method, path)
        if method == "POST":
            conn.putheader("Content-Type", "application/json")
            length = content_length
            if length is None:
                length = str(len(body or b""))
            conn.putheader("Content-Length", length)
        conn.endheaders(body)
        response = conn.getresponse()
        return {
            "request": f"{method} {path}",
            "status": response.status,
            "content_type": response.getheader("Content-Type"),
            "body": response.read().decode("utf-8"),
        }
    finally:
        conn.close()


def _wait_done(app: ServeApp, job_id: str) -> None:
    deadline = time.monotonic() + 10
    while app.job_view(job_id)["state"] != "done":
        assert time.monotonic() < deadline, "job never finished"
        time.sleep(0.005)


def record(directory: pathlib.Path) -> List[Dict[str, object]]:
    """Drive every route once, in a fixed order; one named record each."""
    submit = json.dumps(REQUEST).encode("utf-8")
    out: List[Dict[str, object]] = []
    with _pinned_daemon(directory) as (app, port):

        def add(name: str, *args, **kwargs) -> Dict[str, object]:
            entry = {"name": name, **_exchange(port, *args, **kwargs)}
            out.append(entry)
            return entry

        # First, while no request has been counted yet: the counter
        # for a request lands after its answer is sent.
        add("metrics", "GET", "/metrics")
        add("healthz", "GET", "/healthz")
        add("readyz-ready", "GET", "/readyz")
        created = add("submit-201", "POST", "/jobs", submit)
        job_id = json.loads(created["body"])["id"]
        _wait_done(app, job_id)
        add("submit-200-dedupe", "POST", "/jobs", submit)
        add(
            "submit-400-invalid",
            "POST",
            "/jobs",
            b'{"kind": "simulate", "params": {}}',
        )
        add("submit-400-not-json", "POST", "/jobs", b"{not json")
        add("jobs", "GET", "/jobs")
        add("job-known", "GET", f"/jobs/{job_id}")
        add("job-unknown", "GET", "/jobs/jdoesnotexist")
        add("length-400", "POST", "/jobs", content_length="ten")
        add("length-413", "POST", "/jobs", content_length="99999999999")
        add("get-unknown-route", "GET", "/nowhere")
        add("post-unknown-route", "POST", "/nowhere", b"{}")
        add("dist-get-off", "GET", "/dist/status")
        add("dist-post-off", "POST", "/dist/lease", b"{}")
        add("dashboard", "GET", "/dashboard")
        app.begin_drain()
        add("readyz-draining", "GET", "/readyz")
        add("submit-503-draining", "POST", "/jobs", submit)
    return out


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Dict[str, Dict[str, object]]:
    entries = record(tmp_path_factory.mktemp("wire"))
    return {entry["name"]: entry for entry in entries}


def _golden() -> Dict[str, Dict[str, object]]:
    return {entry["name"]: entry for entry in json.loads(GOLDEN.read_text())}


# Read at collection; a missing file still fails the coverage test.
@pytest.mark.parametrize("name", sorted(_golden()) if GOLDEN.exists() else [])
def test_route_matches_golden(recorded, name):
    assert recorded[name] == _golden()[name]


def test_golden_covers_every_exchange(recorded):
    assert sorted(recorded) == sorted(_golden())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        entries = record(pathlib.Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} exchanges to {GOLDEN}")
