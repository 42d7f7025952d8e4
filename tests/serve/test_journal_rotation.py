"""Journal compaction: size-triggered rotation keeps replay exact.

The write-ahead job journal grows with every lease/requeue/terminal
transition; compaction rewrites the *live* state to a fresh segment
atomically once the file outgrows ``max_bytes``.  These tests pin the
contract: replay after compaction reconstructs every job identically
(state, attempts, results, terminal counts), a torn tail across the
rotation boundary is dropped exactly like one on an uncompacted file,
and a crash mid-compaction leaves the original segment authoritative.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.serve.jobs import Job, normalize_request
from repro.serve.journal import JobJournal


def _job(n: int) -> Job:
    request = normalize_request(
        {
            "kind": "simulate",
            "params": {
                "config": {"preset": "naive", "overrides": {"num_cores": n}},
                "workload": "bfs",
            },
        }
    )
    return Job.from_request(request)


def _snapshot(path: str):
    """Replay → comparable {id: (state, attempts, result, error)}."""
    state = JobJournal._load(path)
    return {
        job_id: (job.state, job.attempts, job.result, job.error)
        for job_id, job in state.entries.items()
    }


class TestCompaction:
    def test_compaction_shrinks_and_preserves_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        # Live state (3 submits with canonical configs + transitions)
        # is ~5 KB; the bound must sit above it or every append after
        # the first crossing re-compacts without ever shrinking below.
        max_bytes = 16384
        journal = JobJournal(path, max_bytes=max_bytes)
        done, failed, queued = _job(1), _job(2), _job(3)
        for job in (done, failed, queued):
            journal.record_entry(job)
        journal.record_lease(done.id, 1, expires_unix=0.0)
        journal.record_done(done.id, {"answer": 42}, elapsed_s=0.5)
        journal.record_lease(failed.id, 1, expires_unix=0.0)
        journal.record_fail(failed.id, "PTWError", "poisoned", 1)
        # Churn: enough expired-lease requeues to cross max_bytes.
        attempt = 0
        while journal.compactions == 0:
            attempt += 1
            journal.record_lease(queued.id, attempt, expires_unix=0.0)
            journal.record_requeue(queued.id, attempt, reason="lease-expired")
            assert attempt < 1000, "compaction never triggered"
        before = _snapshot(path)
        journal.close()

        assert os.path.getsize(path) < max_bytes
        assert _snapshot(path) == before
        state = JobJournal._load(path)
        assert state.entries[done.id].result == {"answer": 42}
        assert state.entries[queued.id].attempts == attempt
        # Exactly-once still pins across the rotation.
        assert JobJournal.terminal_counts(path) == {done.id: 1, failed.id: 1}

    def test_running_job_still_replays_as_interrupted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path, max_bytes=1)  # compact on every append
        job = _job(1)
        journal.record_entry(job)
        journal.record_lease(job.id, 1, expires_unix=0.0)
        assert journal.compactions >= 1
        journal.close()
        replayed = JobJournal(path)
        assert replayed.replayed.interrupted == [job.id]
        assert replayed.replayed.entries[job.id].attempts == 1
        replayed.close()

    def test_appends_after_rotation_stay_parseable(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path, max_bytes=1)
        first, second = _job(1), _job(2)
        journal.record_entry(first)   # rotates immediately
        journal.record_entry(second)  # appended to the fresh segment
        journal.record_done(second.id, {"ok": True})
        journal.close()
        snapshot = _snapshot(path)
        assert set(snapshot) == {first.id, second.id}
        assert snapshot[second.id][0] == "done"


class TestTornTailAcrossRotation:
    def test_torn_tail_after_compaction_is_dropped_with_warning(
        self, tmp_path
    ):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path, max_bytes=1)
        job = _job(1)
        journal.record_entry(job)
        journal.record_done(job.id, {"answer": 1})
        assert journal.compactions >= 1
        journal.close()
        # Crash mid-append on the *compacted* segment.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "fail", "id": "torn-mid')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = JobJournal(path)
        assert any("truncated" in str(w.message) for w in caught)
        assert reopened.replayed.entries[job.id].state == "done"
        assert reopened.replayed.terminal_counts == {job.id: 1}
        # The repaired tail must keep later appends parseable.
        reopened.record_requeue(job.id, 1, reason="recovered")
        reopened.close()
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert JobJournal.terminal_counts(path) == {job.id: 1}

    def test_torn_line_present_at_compaction_time_is_purged(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first, second = _job(1), _job(2)
        journal = JobJournal(path)
        journal.record_entry(first)
        journal.record_done(first.id, {"answer": 1})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "submit", "job": {"id": "to')
        # Reopen with a bound tight enough that the next append
        # compacts across the torn line.
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            journal = JobJournal(path, max_bytes=1)
            journal.record_entry(second)
        assert journal.compactions >= 1
        journal.close()
        # The compacted segment is clean: replay emits no warnings.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            snapshot = _snapshot(path)
        assert snapshot[first.id][0] == "done"
        assert snapshot[second.id][0] == "queued"
        assert not caught


class TestCrashMidCompaction:
    def test_stale_tmp_segment_is_discarded_at_open(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        job = _job(1)
        journal = JobJournal(path)
        journal.record_entry(job)
        journal.record_done(job.id, {"answer": 1})
        journal.close()
        # A compaction that died before its os.replace commit point.
        tmp = path + ".compact.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write('{"ev": "submit", "job": {"id": "half-writ')
        reopened = JobJournal(path)
        assert not os.path.exists(tmp)
        assert reopened.replayed.entries[job.id].state == "done"
        reopened.close()


class TestReplayCompat:
    def test_requeue_event_restores_attempts(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        job = _job(1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"ev": "submit", "job": job.journal_dict()}) + "\n"
            )
            handle.write(
                json.dumps(
                    {"ev": "requeue", "id": job.id, "attempt": 2,
                     "reason": "compacted", "delay_s": 0.0}
                )
                + "\n"
            )
        state = JobJournal._load(path)
        assert state.entries[job.id].state == "queued"
        assert state.entries[job.id].attempts == 2


@pytest.mark.parametrize("max_bytes", [None, 1])
def test_cli_flag_threads_through_serve_config(tmp_path, max_bytes):
    from repro.serve.app import ServeConfig

    config = ServeConfig(
        journal=str(tmp_path / "j.jsonl"),
        journal_max_mb=(max_bytes if max_bytes is None else 0.000001),
    )
    assert (config.journal_max_mb is None) == (max_bytes is None)
