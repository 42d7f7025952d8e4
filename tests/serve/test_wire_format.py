"""The serve daemon's wire format, pinned route by route.

Every route the HTTP layer answers is exercised over a real socket on
a fixed app state — a fake monotonic clock, ``time.time`` pinned, a
fake executor and a private registry — and each answer's status,
``Content-Type`` and body must equal its entry in
``golden/routes.json``.  A second daemon with the sweep coordinator on
drives every ``/dist/*`` route through one fixed cell history.  A
change to ``serve/app.py`` or ``dist/coordinator.py`` that moves any
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

from repro.core.config import GPUConfig, config_hash
from repro.dist.protocol import cell_to_wire, result_digest
from repro.parallel.cells import Cell
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


#: The three cells the ``/dist/*`` exchanges shard, and the (minimal but
#: valid) result string a worker pushes for any of them.
DIST_CELLS = [
    Cell(
        label=f"c{index}",
        workload="bfs",
        config=GPUConfig.preset(
            preset, num_cores=1, warps_per_core=8, warp_width=8
        ),
        miss_scale=1.0,
    )
    for index, preset in enumerate(("naive", "augmented", "no_tlb"))
]
DIST_RESULT = '{"config_description":"golden","cycles":1234,"workload":"bfs"}'


class _Clock:
    """The fake monotonic clock: it moves only when a test moves it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@contextmanager
def _pinned_daemon(
    directory: pathlib.Path, dist: bool = False
) -> Iterator[tuple]:
    """A started app behind a real HTTP server, clocks pinned; ``dist``
    turns the sweep coordinator on, with a two-attempt cell budget."""
    clock = _Clock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(time, "time", lambda: PINNED_UNIX)
        patch.setattr(app_module, "Job", _PinnedJob)
        app = ServeApp(
            ServeConfig(
                journal=str(directory / "journal.jsonl"),
                tick_s=0.005,
                dist_journal=(
                    str(directory / "cells.jsonl") if dist else None
                ),
                dist_max_attempts=2,
            ),
            registry=MetricsRegistry(),
            clock=clock,
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
            yield app, httpd.server_address[1], clock
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


def _body(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _record_dist(directory: pathlib.Path) -> List[Dict[str, object]]:
    """Drive every ``/dist/*`` route through one fixed cell history."""
    out: List[Dict[str, object]] = []
    with _pinned_daemon(directory, dist=True) as (_app, port, clock):

        def add(name: str, path: str, payload=None) -> Dict[str, object]:
            method = "GET" if payload is None else "POST"
            body = None if payload is None else _body(payload)
            entry = {"name": name, **_exchange(port, method, path, body)}
            out.append(entry)
            return json.loads(entry["body"])

        def push(worker, lease, cell, **changes) -> Dict[str, object]:
            payload = {
                "worker": worker,
                "key": lease["key"],
                "attempt": lease["attempt"],
                "config_hash": config_hash(cell.config),
                "digest": result_digest(DIST_RESULT),
                "result": DIST_RESULT,
            }
            payload.update(changes)
            return payload

        def fail(worker, lease) -> Dict[str, object]:
            return {
                "worker": worker,
                "key": lease["key"],
                "attempt": lease["attempt"],
                "error_type": "PTWError",
                "error": "every walk failed",
                "diagnostics": {"series": "golden"},
            }

        wires = [cell_to_wire(cell) for cell in DIST_CELLS]
        add("dist-shard", "/dist/shard", {"cells": wires})
        first = add("dist-lease", "/dist/lease", {"worker": "w1"})["lease"]
        add("dist-status-leased", "/dist/status")
        token = {"worker": "w1", "key": first["key"]}
        add(
            "dist-heartbeat-live",
            "/dist/heartbeat",
            dict(token, attempt=first["attempt"]),
        )
        add(
            "dist-heartbeat-fenced",
            "/dist/heartbeat",
            dict(token, attempt=first["attempt"] + 1),
        )
        add(
            "dist-complete-torn",
            "/dist/complete",
            push("w1", first, DIST_CELLS[0], result=DIST_RESULT[:20]),
        )
        done = push("w1", first, DIST_CELLS[0])
        add("dist-complete-accepted", "/dist/complete", done)
        add("dist-complete-duplicate", "/dist/complete", done)
        second = add("dist-lease-second", "/dist/lease", {"worker": "w2"})
        second = second["lease"]
        add(
            "dist-complete-fenced",
            "/dist/complete",
            push("w2", dict(second, attempt=2), DIST_CELLS[1]),
        )
        add("dist-fail-retried", "/dist/fail", fail("w2", second))
        # The failed cell waits out its backoff; the never-leased one
        # is the only cell runnable meanwhile.
        add("dist-lease-third", "/dist/lease", {"worker": "w1"})
        add("dist-lease-idle", "/dist/lease", {"worker": "w2"})
        clock.now += 10.0  # past any backoff, inside the lease TTL
        retry = add("dist-lease-retry", "/dist/lease", {"worker": "w2"})
        add("dist-fail-final", "/dist/fail", fail("w2", retry["lease"]))
        add("dist-status", "/dist/status")
        add("dist-cells", "/dist/cells")
        add("dist-assemble", "/dist/assemble", {})
    return out


def record(directory: pathlib.Path) -> List[Dict[str, object]]:
    """Drive every route once, in a fixed order; one named record each."""
    submit = json.dumps(REQUEST).encode("utf-8")
    out: List[Dict[str, object]] = []
    with _pinned_daemon(directory) as (app, port, _clock):

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
    dist = directory / "dist"
    dist.mkdir()
    return out + _record_dist(dist)


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
