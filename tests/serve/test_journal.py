"""Journal replay edge cases: torn lines, duplicates, interruptions."""

from __future__ import annotations

import json
import os

import pytest

from repro.serve.jobs import Job, normalize_request
from repro.serve.journal import JobJournal


def _job(workload="bfs", config="naive") -> Job:
    return Job.from_request(
        normalize_request(
            {
                "kind": "simulate",
                "params": {"config": config, "workload": workload},
            }
        )
    )


def test_full_lifecycle_replays_to_done(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
        journal.record_lease(job.id, 1, expires_unix=0.0)
        journal.record_done(job.id, {"cycles": 42})
    replayed = JobJournal(path).replayed
    restored = replayed.entries[job.id]
    assert restored.state == "done"
    assert restored.result == {"cycles": 42}
    assert replayed.interrupted == []
    assert replayed.terminal_counts == {job.id: 1}


def test_leased_but_not_terminal_is_interrupted(tmp_path):
    # The crash-recovery contract: a job mid-lease when the process
    # died must come back for re-dispatch, not be lost.
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
        journal.record_lease(job.id, 1, expires_unix=0.0)
    replayed = JobJournal(path).replayed
    assert replayed.interrupted == [job.id]
    assert replayed.entries[job.id].attempts == 1


def test_torn_final_line_is_dropped_with_a_warning(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
        journal.record_done(job.id, {"cycles": 1})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"ev": "submit", "job": {"id": "torn-mid-app')
    with pytest.warns(RuntimeWarning, match="truncated"):
        replayed = JobJournal(path).replayed
    assert replayed.dropped_lines == 1
    assert replayed.entries[job.id].state == "done"
    assert "torn-mid-app" not in replayed.entries


def test_append_after_torn_line_starts_clean(tmp_path):
    # A restarted server appends to the torn journal; its new events
    # must parse on the *next* replay even though a partial line
    # precedes them (the open in append mode starts a fresh line).
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"ev": "lease", "id": "' + job.id)  # torn, no \n
    with pytest.warns(RuntimeWarning, match="truncated"):
        journal = JobJournal(path)
    with journal:
        journal.record_done(job.id, {"cycles": 2})
    with pytest.warns(RuntimeWarning, match="truncated"):
        replayed = JobJournal(path).replayed
    assert replayed.entries[job.id].state == "done"
    assert replayed.terminal_counts == {job.id: 1}


def test_duplicate_submit_replays_to_one_job(tmp_path):
    # A client retrying across a lost response journals the same
    # content-derived id twice; replay must keep exactly one job.
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
        journal.record_entry(job)
        journal.record_done(job.id, {"cycles": 7})
    replayed = JobJournal(path).replayed
    assert len(replayed.entries) == 1
    assert replayed.duplicates == 1
    assert replayed.entries[job.id].state == "done"
    assert replayed.terminal_counts == {job.id: 1}


def test_requeue_then_done_counts_terminal_once(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
        journal.record_lease(job.id, 1, expires_unix=0.0)
        journal.record_requeue(job.id, 1, reason="lease-expired", delay_s=0.1)
        journal.record_lease(job.id, 2, expires_unix=0.0)
        journal.record_done(job.id, {"cycles": 9})
    counts = JobJournal.terminal_counts(path)
    assert counts == {job.id: 1}


def test_failed_job_replays_with_structured_error(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    with JobJournal(path) as journal:
        journal.record_entry(job)
        journal.record_lease(job.id, 1, expires_unix=0.0)
        journal.record_fail(job.id, "PTWError", "walk failed", 1)
    restored = JobJournal(path).replayed.entries[job.id]
    assert restored.state == "failed"
    assert restored.error["type"] == "PTWError"
    assert restored.error["attempts"] == 1


def test_orphaned_event_is_ignored(tmp_path):
    # A done/lease line whose submit was the torn line must not crash
    # replay (the job is simply unknown until resubmitted).
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"ev": "done", "id": "jdeadbeef", "result": 1}) + "\n"
        )
    replayed = JobJournal(path).replayed
    assert replayed.entries == {}
    assert replayed.terminal_counts == {}


def test_every_append_is_flushed_to_disk(tmp_path):
    # The WAL property: the line is on disk before the call returns,
    # visible to an independent reader with the writer still open.
    path = str(tmp_path / "journal.jsonl")
    job = _job()
    journal = JobJournal(path)
    journal.record_entry(job)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    assert len(lines) == 1 and lines[0].endswith("\n")
    assert json.loads(lines[0])["ev"] == "submit"
    journal.close()


def test_journal_creates_parent_directory(tmp_path):
    path = str(tmp_path / "nested" / "dir" / "journal.jsonl")
    with JobJournal(path) as journal:
        journal.record_entry(_job())
    assert os.path.exists(path)
