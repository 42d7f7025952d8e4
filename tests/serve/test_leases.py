"""Lease table semantics: expiry, fencing, re-queue backoff."""

from __future__ import annotations

from repro.serve.jobs import Job
from repro.serve.journal import JobJournal
from repro.serve.leases import LeaseLedger, LeaseTable


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _table(ttl=10.0):
    clock = FakeClock()
    return LeaseTable(ttl=ttl, clock=clock), clock


def test_grant_release_round_trip():
    table, _clock = _table()
    lease = table.grant("j1", attempt=1)
    assert table.is_current(lease)
    assert table.live_count == 1
    assert table.release(lease) is True
    assert table.live_count == 0


def test_lease_expires_after_ttl():
    table, clock = _table(ttl=10.0)
    lease = table.grant("j1", attempt=1)
    assert table.expired() == []
    clock.advance(10.0)
    assert table.expired() == [lease]


def test_renew_extends_a_current_lease():
    table, clock = _table(ttl=10.0)
    lease = table.grant("j1", attempt=1)
    clock.advance(9.0)
    renewed = table.renew(lease)
    assert renewed is not None
    clock.advance(9.0)  # 18s after grant, 9s after renew
    assert table.expired() == []


def test_stale_lease_is_fenced_off():
    # The exactly-once mechanism: an executor whose lease expired and
    # whose job was re-granted must not be able to commit.
    table, _clock = _table()
    stale = table.grant("j1", attempt=1)
    table.revoke("j1")
    fresh = table.grant("j1", attempt=2)
    assert not table.is_current(stale)
    assert table.release(stale) is False
    assert table.renew(stale) is None
    assert table.is_current(fresh)
    assert table.release(fresh) is True


def test_requeue_delay_grows_per_job():
    table, _clock = _table()
    first = table.requeue_delay("j1")
    second = table.requeue_delay("j1")
    third = table.requeue_delay("j1")
    assert 0 < first <= 2.0
    # Decorrelated jitter is random but monotone in expectation from a
    # small base; the implementation caps every delay.
    assert all(0 < d <= 2.0 for d in (second, third))
    assert table.expired_total == 3


def test_requeue_delay_is_deterministic_across_tables():
    # Seeded per job id (not via process-salted hash()): two tables —
    # two server incarnations — see the same sequence.
    a, _ = _table()
    b, _ = _table()
    assert [a.requeue_delay("j1") for _ in range(3)] == [
        b.requeue_delay("j1") for _ in range(3)
    ]


def test_requeue_delays_differ_between_jobs():
    table, _clock = _table()
    assert table.requeue_delay("j1") != table.requeue_delay("j2")


def test_revoke_keeps_backoff_growing_but_release_resets_it():
    # The dispatcher revokes before asking for the next delay, so the
    # streak must survive revocation; a successful commit ends it.
    table, _clock = _table()
    first = table.requeue_delay("j1")
    table.revoke("j1")
    second = table.requeue_delay("j1")
    assert second != first  # the sequence advanced across the revoke
    lease = table.grant("j1", attempt=3)
    assert table.release(lease) is True
    assert table.requeue_delay("j1") == first  # streak reset on commit


def test_ledger_queue_is_fifo_with_recovered_entries_first(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with JobJournal(path) as journal:
        for n in range(3):
            journal.record_entry(Job(id=f"j{n}", kind="figure", params={}))
        journal.record_lease("j2", 1, expires_unix=None)  # then a crash
    ledger = LeaseLedger(JobJournal(path), clock=FakeClock())
    assert ledger.recover("recovered") == ["j2"]
    assert ledger.ready == ["j2", "j0", "j1"]
    entry, lease = ledger.grant()
    assert (entry.id, lease.attempt) == ("j2", 2)
    delay = ledger.retry_or_fail(lease, "lease-expired", "LeaseExpired", "")
    assert delay is not None  # attempt 2 of 3: re-queued, at the back
    assert ledger.ready == ["j0", "j1", "j2"]
    ledger.journal.close()
    assert JobJournal(path).replayed.entries["j2"].state == "queued"


def test_ledger_fails_an_entry_past_its_budget(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    ledger = LeaseLedger(journal, clock=FakeClock())
    ledger.recover("recovered")
    ledger.add(Job(id="j0", kind="figure", params={}, max_attempts=1))
    _entry, lease = ledger.grant()
    assert ledger.retry_or_fail(lease, "r", "LeaseExpired", "gone") is None
    assert ledger.entries["j0"].error == {
        "type": "LeaseExpired", "message": "gone", "attempts": 1,
    }
    assert not ledger.commit(lease, {"late": True})  # fenced off
    journal.close()
    assert JobJournal.terminal_counts(path) == {"j0": 1}
