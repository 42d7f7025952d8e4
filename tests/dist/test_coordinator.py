"""The coordinator's verification pipeline, fencing, and recovery.

Everything here drives :class:`~repro.dist.coordinator.DistCoordinator`
in-process with a fake clock and a canned (but valid) result string —
no sockets, no real simulations — so the fencing semantics are pinned
in milliseconds.
"""

from __future__ import annotations

import pytest

from repro.core.config import GPUConfig, config_hash
from repro.dist.coordinator import DistCoordinator
from repro.dist.journal import CellJournal
from repro.dist.protocol import cell_to_wire, result_digest
from repro.faults.errors import SimulationError
from repro.parallel.cells import Cell, execute_cell, key_of
from repro.prof.registry import MetricsRegistry


@pytest.fixture(scope="module")
def canned():
    """One real tiny simulation, shared: a valid result string plus
    the cell that produced it."""
    cell = Cell(
        label="t",
        workload="bfs",
        config=GPUConfig.preset(
            "naive", num_cores=1, warps_per_core=8, warp_width=8
        ),
        miss_scale=1.0,
    )
    return cell, execute_cell(cell).canonical_json()


def _cells(n=2):
    presets = ["naive", "augmented", "no_tlb", "ideal"]
    return [
        Cell(
            label=f"c{i}",
            workload="bfs",
            config=GPUConfig.preset(
                presets[i % len(presets)],
                num_cores=1,
                warps_per_core=8,
                warp_width=8,
            ),
            miss_scale=1.0,
        )
        for i in range(n)
    ]


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _coordinator(tmp_path, clock, **kwargs):
    defaults = dict(
        registry=MetricsRegistry(),
        lease_ttl=10.0,
        max_attempts=3,
        clock=clock,
    )
    defaults.update(kwargs)
    return DistCoordinator(str(tmp_path / "cells.jsonl"), **defaults)


def _push(coordinator, lease, result_json, cell, worker="w"):
    return coordinator.complete(
        worker,
        lease["key"],
        lease["attempt"],
        result_json,
        result_digest(result_json),
        config_hash(cell.config),
    )


class TestShardAndLease:
    def test_submit_is_idempotent(self, tmp_path):
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, clock)
        cells = _cells(2)
        keys = coordinator.submit_cells(cells)
        assert keys == [key_of(c) for c in cells]
        assert coordinator.submit_cells(cells) == keys
        assert coordinator.counts()["queued"] == 2
        coordinator.close()

    def test_lease_hands_out_cells_in_submission_order(self, tmp_path):
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, clock)
        keys = coordinator.submit_cells(_cells(2))
        first = coordinator.lease("w1")
        second = coordinator.lease("w2")
        assert [first["key"], second["key"]] == keys
        assert first["attempt"] == 1
        assert coordinator.lease("w3") is None  # nothing left
        coordinator.close()


    def test_requeued_cell_waits_behind_cells_never_leased(self, tmp_path):
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, clock, lease_ttl=5.0)
        keys = coordinator.submit_cells(_cells(3))
        assert coordinator.lease("w1")["key"] == keys[0]
        clock.advance(6.0)  # the lease lapses: keys[0] re-queues
        coordinator.maintain()
        clock.advance(5.0)  # past its backoff
        order = [coordinator.lease("w2")["key"] for _ in range(3)]
        assert order == [keys[1], keys[2], keys[0]]
        coordinator.close()


class TestVerificationPipeline:
    def test_unknown_key_is_rejected(self, tmp_path, canned):
        _, result_json = canned
        coordinator = _coordinator(tmp_path, FakeClock())
        coordinator.submit_cells(_cells(1))
        out = coordinator.complete(
            "w", "no-such-cell", 1, result_json,
            result_digest(result_json), None,
        )
        assert out == {
            "accepted": False, "reason": "unknown", "retry": False,
        }
        coordinator.close()

    def test_torn_result_fails_digest_and_asks_for_repush(
        self, tmp_path, canned
    ):
        cell, result_json = canned
        registry = MetricsRegistry()
        coordinator = _coordinator(
            tmp_path, FakeClock(), registry=registry
        )
        coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        torn = dict(lease)
        out = coordinator.complete(
            "w", torn["key"], torn["attempt"],
            result_json[: len(result_json) // 2],
            result_digest(result_json),  # digest of the TRUE bytes
            config_hash(cell.config),
        )
        assert out["reason"] == "digest" and out["retry"] is True
        assert registry.counter(
            "dist_rejected_results_total"
        ).value(reason="digest") == 1
        # The worker still holds the true bytes; the re-push lands.
        assert _push(coordinator, lease, result_json, cell)["accepted"]
        coordinator.close()

    def test_config_hash_mismatch_is_rejected_permanently(
        self, tmp_path, canned
    ):
        cell, result_json = canned
        coordinator = _coordinator(tmp_path, FakeClock())
        coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        out = coordinator.complete(
            "w", lease["key"], lease["attempt"], result_json,
            result_digest(result_json), "sha256:wrong",
        )
        assert out["reason"] == "config_hash" and out["retry"] is False
        coordinator.close()

    def test_malformed_result_string_is_rejected(self, tmp_path, canned):
        cell, _ = canned
        coordinator = _coordinator(tmp_path, FakeClock())
        coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        garbage = '{"not": "a simulation result"}'
        out = coordinator.complete(
            "w", lease["key"], lease["attempt"], garbage,
            result_digest(garbage), config_hash(cell.config),
        )
        assert out["reason"] == "malformed"
        coordinator.close()

    def test_duplicate_push_is_stale_and_counted(self, tmp_path, canned):
        cell, result_json = canned
        registry = MetricsRegistry()
        coordinator = _coordinator(
            tmp_path, FakeClock(), registry=registry
        )
        coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        assert _push(coordinator, lease, result_json, cell)["accepted"]
        replay = _push(coordinator, lease, result_json, cell)
        assert replay == {
            "accepted": False, "reason": "duplicate", "retry": False,
        }
        assert registry.counter(
            "dist_stale_results_total"
        ).value(reason="duplicate") == 1
        coordinator.close()

    def test_fenced_attempt_push_is_stale(self, tmp_path, canned):
        cell, result_json = canned
        clock = FakeClock()
        registry = MetricsRegistry()
        coordinator = _coordinator(
            tmp_path, clock, registry=registry, lease_ttl=5.0
        )
        coordinator.submit_cells([cell])
        old = coordinator.lease("w1")
        clock.advance(6.0)  # lease lapses
        coordinator.maintain()
        clock.advance(5.0)  # clear any re-queue backoff
        fresh = coordinator.lease("w2")
        assert fresh["attempt"] == old["attempt"] + 1
        late = _push(coordinator, old, result_json, cell, worker="w1")
        assert late == {
            "accepted": False, "reason": "fenced", "retry": False,
        }
        assert registry.counter(
            "dist_stale_results_total"
        ).value(reason="fenced") == 1
        # The live attempt still commits.
        assert _push(coordinator, fresh, result_json, cell, "w2")[
            "accepted"
        ]
        coordinator.close()


class TestHeartbeats:
    def test_heartbeat_renews_live_lease(self, tmp_path, canned):
        cell, _ = canned
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, clock, lease_ttl=5.0)
        coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        clock.advance(4.0)
        assert coordinator.heartbeat("w", lease["key"], lease["attempt"])
        clock.advance(4.0)  # past the original expiry, inside the renewal
        coordinator.maintain()
        assert coordinator.counts()["running"] == 1
        coordinator.close()

    def test_stale_attempt_heartbeat_is_fenced(self, tmp_path, canned):
        cell, _ = canned
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, clock, lease_ttl=5.0)
        coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        clock.advance(6.0)
        coordinator.maintain()
        assert not coordinator.heartbeat(
            "w", lease["key"], lease["attempt"]
        )
        coordinator.close()


class TestExpiryAndBudget:
    def test_expired_lease_requeues_with_backoff(self, tmp_path, canned):
        cell, _ = canned
        clock = FakeClock()
        registry = MetricsRegistry()
        coordinator = _coordinator(
            tmp_path, clock, registry=registry, lease_ttl=5.0
        )
        coordinator.submit_cells([cell])
        coordinator.lease("w")
        clock.advance(6.0)
        coordinator.maintain()
        assert coordinator.counts()["queued"] == 1
        assert registry.counter(
            "dist_lease_expirations_total"
        ).value() == 1
        # not_before gates the re-lease until the backoff delay passes.
        assert coordinator.lease("w") is None
        clock.advance(5.0)
        assert coordinator.lease("w") is not None
        coordinator.close()

    def test_budget_exhaustion_fails_structurally(self, tmp_path, canned):
        cell, _ = canned
        clock = FakeClock()
        coordinator = _coordinator(
            tmp_path, clock, lease_ttl=5.0, max_attempts=2
        )
        keys = coordinator.submit_cells([cell])
        for _ in range(2):
            clock.advance(5.0)
            assert coordinator.lease("w") is not None
            clock.advance(6.0)
            coordinator.maintain()
        counts = coordinator.counts()
        assert counts["failed"] == 1
        with pytest.raises(SimulationError) as info:
            coordinator.assemble(keys)
        assert info.value.diagnostics["attempts"] == 2
        assert info.value.diagnostics["cell_key"] == keys[0]
        coordinator.close()

    def test_worker_reported_failure_consumes_budget(
        self, tmp_path, canned
    ):
        cell, _ = canned
        clock = FakeClock()
        coordinator = _coordinator(
            tmp_path, clock, lease_ttl=5.0, max_attempts=1
        )
        keys = coordinator.submit_cells([cell])
        lease = coordinator.lease("w")
        out = coordinator.fail(
            "w", lease["key"], lease["attempt"],
            "PTWError", "every walk failed", {"series": "t"},
        )
        assert out["accepted"]
        with pytest.raises(SimulationError) as info:
            coordinator.assemble(keys)
        assert "every walk failed" in str(info.value)
        coordinator.close()


class TestRestartRecovery:
    def test_interrupted_cells_requeue_and_results_survive(
        self, tmp_path, canned
    ):
        cell, result_json = canned
        others = _cells(2)
        clock = FakeClock()
        first = _coordinator(tmp_path, clock)
        keys = first.submit_cells([cell] + others)
        lease = first.lease("w")
        assert _push(first, lease, result_json, cell)["accepted"]
        running = first.lease("w")  # mid-lease when the process dies
        assert running is not None
        first.close()

        second = _coordinator(tmp_path, clock)
        counts = second.counts()
        assert counts["done"] == 1
        assert counts["queued"] == 2  # the interrupted one re-queued
        assert counts["running"] == 0
        assert second.result_strings([keys[0]]) == [result_json]
        # Replay does not double-count the done cell.
        journal_counts = CellJournal.terminal_counts(
            str(tmp_path / "cells.jsonl")
        )
        assert journal_counts.get(keys[0]) == 1
        second.close()

    def test_byte_identical_result_string_survives_replay(
        self, tmp_path, canned
    ):
        cell, result_json = canned
        clock = FakeClock()
        first = _coordinator(tmp_path, clock)
        keys = first.submit_cells([cell])
        lease = first.lease("w")
        _push(first, lease, result_json, cell)
        first.close()
        second = _coordinator(tmp_path, clock)
        assert second.result_strings(keys) == [result_json]
        assert (
            second.assemble(keys)[0].canonical_json() == result_json
        )
        second.close()


    def test_compaction_keeps_submission_order(self, tmp_path):
        # With journal_max_bytes=1 every append compacts the journal.
        clock = FakeClock()
        cells = sorted(_cells(3), key=key_of, reverse=True)
        first = _coordinator(tmp_path, clock, journal_max_bytes=1)
        keys = first.submit_cells(cells)
        assert keys != sorted(keys)
        first.close()

        second = _coordinator(tmp_path, clock)
        status, listed = second.handle("GET", "/dist/cells", None)
        assert status == 200
        assert [cell["key"] for cell in listed["cells"]] == keys
        assert [second.lease("w")["key"] for _ in keys] == keys
        second.close()

    @pytest.mark.parametrize(
        "journal_max_bytes", [None, 1], ids=["appended", "compacted"]
    )
    def test_failed_cell_diagnostics_survive_a_restart(
        self, tmp_path, canned, journal_max_bytes
    ):
        # With journal_max_bytes=1 every append compacts the journal,
        # so the second coordinator replays a compacted segment.
        cell, _ = canned
        clock = FakeClock()
        first = _coordinator(
            tmp_path, clock, max_attempts=1, journal_max_bytes=journal_max_bytes
        )
        keys = first.submit_cells([cell])
        lease = first.lease("w")
        first.fail(
            "w", lease["key"], lease["attempt"],
            "PTWError", "every walk failed", {"series": "s"},
        )
        status, before = first.handle("GET", "/dist/cells", None)
        assert status == 200
        assert before["cells"][0]["error"]["diagnostics"]["series"] == "s"
        with pytest.raises(SimulationError) as info:
            first.assemble(keys)
        diagnostics = info.value.diagnostics
        first.close()

        second = _coordinator(tmp_path, clock, max_attempts=1)
        status, after = second.handle("GET", "/dist/cells", None)
        assert status == 200
        assert after == before
        with pytest.raises(SimulationError) as info:
            second.assemble(keys)
        assert info.value.diagnostics == diagnostics
        assert info.value.diagnostics["series"] == "s"
        second.close()


class TestHttpSplice:
    def test_routes_round_trip(self, tmp_path, canned):
        cell, result_json = canned
        coordinator = _coordinator(tmp_path, FakeClock())
        status, body = coordinator.handle(
            "POST", "/dist/shard", {"cells": [cell_to_wire(cell)]}
        )
        assert status == 200
        keys = body["keys"]
        status, body = coordinator.handle(
            "POST", "/dist/lease", {"worker": "w"}
        )
        lease = body["lease"]
        status, body = coordinator.handle(
            "POST",
            "/dist/complete",
            {
                "worker": "w",
                "key": lease["key"],
                "attempt": lease["attempt"],
                "config_hash": config_hash(cell.config),
                "digest": result_digest(result_json),
                "result": result_json,
            },
        )
        assert status == 200 and body["accepted"]
        status, body = coordinator.handle(
            "POST", "/dist/assemble", {"keys": keys}
        )
        assert status == 200 and body["complete"]
        assert body["cells"][0]["result"] == result_json
        coordinator.close()

    def test_bad_payloads_are_400(self, tmp_path):
        coordinator = _coordinator(tmp_path, FakeClock())
        assert coordinator.handle("POST", "/dist/lease", {})[0] == 400
        assert coordinator.handle(
            "POST", "/dist/shard", {"cells": []}
        )[0] == 400
        assert coordinator.handle(
            "POST", "/dist/shard", {"cells": ["junk"]}
        )[0] == 400
        assert coordinator.handle("POST", "/dist/nope", {})[0] == 404
        assert coordinator.handle("GET", "/dist/status", None)[0] == 200
        coordinator.close()
