"""The job and cell journals' on-disk format, pinned byte for byte.

A fixed script writes one job journal and one cell journal with
``time.time`` pinned.  Between them they hold every event kind, a
duplicate entry, a lease with an owner, the ``elapsed_s`` and
``digest``/``worker`` extras, a fail, and one compacted segment each
(the later appends land after it).  Each test replays a committed
golden file and checks what it reconstructs, then re-runs the script
and compares the bytes it writes with the golden file.

To regenerate the golden files after a deliberate format change::

    PYTHONPATH=src python tests/serve/test_journal_golden.py
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time

import pytest

from repro.dist.journal import CellJournal, CellState
from repro.serve.jobs import Job
from repro.serve.journal import JobJournal

GOLDEN = pathlib.Path(__file__).parent / "golden"
JOB_GOLDEN = GOLDEN / "job_journal.jsonl"
CELL_GOLDEN = GOLDEN / "cell_journal.jsonl"

#: Wall-clock second every ``time.time()`` call answers with.
PINNED_UNIX = 1_700_000_000.0


def _job(job_id: str, submitted_offset: float, **extra) -> Job:
    return Job(
        id=job_id,
        kind="figure",
        params={"name": "fig02", "workloads": [job_id]},
        submitted_unix=PINNED_UNIX + submitted_offset,
        **extra,
    )


def _compact_on_next_append(journal) -> None:
    """Bound the journal just under its current size: the next append
    rewrites it as one compacted segment."""
    journal.max_bytes = os.path.getsize(journal.path) - 1


def write_job_journal(path: str) -> None:
    # Submission order differs from submit-time order on purpose:
    # compaction keeps the order jobs were journaled in.
    done = _job("jdone", 2.0, deadline_s=900.0)
    failed = _job("jfailed", 1.0, max_attempts=2)
    drained = _job("jdrained", 3.0)
    crashed = _job("jcrashed", 0.0)
    fresh = _job("jfresh", 4.0)
    with JobJournal(path) as journal:
        for job in (done, failed, drained, crashed):
            journal.record_entry(job)
        journal.record_entry(done)  # a client retry: one job
        journal.record_lease(done.id, 1, expires_unix=PINNED_UNIX + 960.0)
        journal.record_done(done.id, {"cycles": 1234}, elapsed_s=1.2345678)
        journal.record_lease(failed.id, 1, expires_unix=PINNED_UNIX + 630.0)
        journal.record_requeue(
            failed.id, 1, reason="lease-expired", delay_s=0.123456789
        )
        journal.record_lease(failed.id, 2, expires_unix=PINNED_UNIX + 630.0)
        journal.record_fail(
            failed.id, "LeaseExpired", "lease expired on attempt 2/2", 2
        )
        journal.record_lease(drained.id, 1, expires_unix=PINNED_UNIX + 630.0)
        journal.record_requeue(drained.id, 1, reason="drain")
        journal.record_lease(crashed.id, 1, expires_unix=PINNED_UNIX + 630.0)
        _compact_on_next_append(journal)
        journal.record_entry(fresh)
        assert journal.compactions == 1
        journal.max_bytes = None
        journal.record_entry(done)  # a retry after compaction
        journal.record_requeue(crashed.id, 1, reason="recovered")
        journal.record_lease(crashed.id, 2, expires_unix=PINNED_UNIX + 630.0)
        journal.record_done(crashed.id, {"cycles": 99}, elapsed_s=0.5)
        journal.record_lease(drained.id, 2, expires_unix=PINNED_UNIX + 630.0)


def write_cell_journal(path: str) -> None:
    # Shard order differs from key order on purpose: compaction keeps
    # the order cells were sharded in.
    wire = {"label": "golden", "workload": "bfs"}
    with CellJournal(path) as journal:
        for key in ("k3", "k1", "k2", "k4"):
            journal.record_entry(CellState(key, dict(wire, label=key)))
        journal.record_entry(CellState("k1", dict(wire, label="k1")))  # re-shard
        journal.record_lease("k1", 1, PINNED_UNIX + 30.0, worker="w1")
        journal.record_done(
            "k1", '{"cycles":1}', digest="sha256:" + "1" * 64, worker="w1"
        )
        journal.record_lease("k3", 1, PINNED_UNIX + 30.0, worker="w2")
        journal.record_requeue(
            "k3", 1, reason="worker-error", delay_s=0.0654321
        )
        journal.record_lease("k3", 2, PINNED_UNIX + 30.0, worker="w1")
        journal.record_fail("k3", "PTWError", "every walk failed", 2)
        journal.record_lease("k2", 1, PINNED_UNIX + 30.0, worker="w2")
        journal.record_requeue("k2", 1, reason="lease-expired", delay_s=0.5)
        journal.record_lease("k4", 1, PINNED_UNIX + 30.0, worker="w1")
        _compact_on_next_append(journal)
        journal.record_entry(CellState("k5", dict(wire, label="k5")))
        assert journal.compactions == 1
        journal.max_bytes = None
        journal.record_entry(CellState("k3", dict(wire, label="k3")))
        journal.record_requeue("k4", 1, reason="coordinator-restart")
        journal.record_lease("k4", 2, PINNED_UNIX + 30.0, worker="w2")
        journal.record_done(
            "k4", '{"cycles":4}', digest="sha256:" + "4" * 64, worker="w2"
        )
        journal.record_lease("k2", 2, PINNED_UNIX + 30.0, worker="w1")


def write_goldens(directory: pathlib.Path) -> None:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(time, "time", lambda: PINNED_UNIX)
        write_job_journal(str(directory / JOB_GOLDEN.name))
        write_cell_journal(str(directory / CELL_GOLDEN.name))


@pytest.fixture(scope="module")
def rewritten(tmp_path_factory) -> pathlib.Path:
    directory = tmp_path_factory.mktemp("journals")
    write_goldens(directory)
    return directory


def test_job_journal_replays_every_transition():
    replay = JobJournal._load(str(JOB_GOLDEN))
    assert {
        job_id: (job.state, job.attempts, job.result, job.error)
        for job_id, job in replay.entries.items()
    } == {
        "jdone": ("done", 1, {"cycles": 1234}, None),
        "jfailed": (
            "failed",
            2,
            None,
            {
                "type": "LeaseExpired",
                "message": "lease expired on attempt 2/2",
                "attempts": 2,
            },
        ),
        "jdrained": ("running", 2, None, None),
        "jcrashed": ("done", 2, {"cycles": 99}, None),
        "jfresh": ("queued", 0, None, None),
    }
    assert list(replay.entries) == [
        "jdone", "jfailed", "jdrained", "jcrashed", "jfresh"
    ]
    assert replay.entries["jdone"].deadline_s == 900.0
    assert replay.entries["jfailed"].max_attempts == 2
    assert replay.terminal_counts == {"jdone": 1, "jfailed": 1, "jcrashed": 1}
    assert replay.interrupted == ["jdrained"]
    assert replay.duplicates == 1
    assert replay.dropped_lines == 0


def test_cell_journal_replays_every_transition():
    replay = CellJournal._load(str(CELL_GOLDEN))
    assert {
        key: (cell.state, cell.attempts, cell.result, cell.error)
        for key, cell in replay.entries.items()
    } == {
        "k1": ("done", 1, '{"cycles":1}', None),
        "k2": ("running", 2, None, None),
        "k3": (
            "failed",
            2,
            None,
            {"type": "PTWError", "message": "every walk failed", "attempts": 2},
        ),
        "k4": ("done", 2, '{"cycles":4}', None),
        "k5": ("queued", 0, None, None),
    }
    assert list(replay.entries) == ["k3", "k1", "k2", "k4", "k5"]
    assert replay.entries["k1"].digest == "sha256:" + "1" * 64
    assert replay.entries["k4"].wire == {"label": "k4", "workload": "bfs"}
    assert replay.terminal_counts == {"k1": 1, "k3": 1, "k4": 1}
    assert replay.interrupted == ["k2"]
    assert replay.duplicates == 1
    assert replay.dropped_lines == 0


@pytest.mark.parametrize("golden", [JOB_GOLDEN, CELL_GOLDEN], ids=lambda p: p.stem)
def test_script_rewrites_the_golden_bytes(rewritten, golden):
    assert (rewritten / golden.name).read_bytes() == golden.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_goldens(pathlib.Path(scratch))
        GOLDEN.mkdir(exist_ok=True)
        for golden in (JOB_GOLDEN, CELL_GOLDEN):
            golden.write_bytes((pathlib.Path(scratch) / golden.name).read_bytes())
            print(f"wrote {golden}")
