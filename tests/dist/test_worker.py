"""The worker loop: lease, run, heartbeat, push — and survive the rest.

Workers here run against a real in-process coordinator through
:class:`~repro.dist.transport.LocalTransport` (so every payload crosses
the same JSON byte boundary the wire does) with a stubbed ``run_cell``
— fast, deterministic, no simulations.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import GPUConfig
from repro.core.results import SimulationResult
from repro.dist.coordinator import DistCoordinator
from repro.dist.faultnet import FaultSpec, FaultyTransport
from repro.dist.journal import CellJournal
from repro.dist.transport import LocalTransport, TransportError
from repro.dist.worker import DistWorker
from repro.faults.errors import SimulationHang
from repro.parallel.cells import Cell, execute_cell
from repro.prof.registry import MetricsRegistry


@pytest.fixture(scope="module")
def canned_result():
    cell = Cell(
        label="t",
        workload="bfs",
        config=GPUConfig.preset(
            "naive", num_cores=1, warps_per_core=8, warp_width=8
        ),
        miss_scale=1.0,
    )
    return execute_cell(cell)


def _cells(n=1):
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


def _coordinator(tmp_path, **kwargs):
    defaults = dict(registry=MetricsRegistry(), lease_ttl=30.0)
    defaults.update(kwargs)
    return DistCoordinator(str(tmp_path / "cells.jsonl"), **defaults)


def _worker(coordinator, result, **kwargs):
    defaults = dict(
        worker_id="w",
        poll_s=0.0,
        run_cell=lambda cell: result,
        sleep=lambda _s: None,
    )
    defaults.update(kwargs)
    return DistWorker(LocalTransport(coordinator), **defaults)


class TestHappyPath:
    def test_step_leases_runs_and_pushes(self, tmp_path, canned_result):
        coordinator = _coordinator(tmp_path)
        keys = coordinator.submit_cells(_cells(1))
        worker = _worker(coordinator, canned_result)
        assert worker.step() == "ran"
        assert worker.cells_done == 1
        assert coordinator.result_strings(keys) == [
            canned_result.canonical_json()
        ]
        assert worker.step() == "idle"
        coordinator.close()

    def test_run_drains_and_exits_on_idle(self, tmp_path, canned_result):
        coordinator = _coordinator(tmp_path)
        keys = coordinator.submit_cells(_cells(3))
        worker = _worker(coordinator, canned_result)
        done = worker.run(idle_exit_s=0.0)
        assert done == 3
        assert coordinator.all_terminal()
        counts = CellJournal.terminal_counts(str(tmp_path / "cells.jsonl"))
        assert all(counts.get(k) == 1 for k in keys)
        coordinator.close()


class TestFailurePaths:
    def test_structured_error_is_reported_as_fail(
        self, tmp_path, canned_result
    ):
        coordinator = _coordinator(tmp_path, max_attempts=1)
        keys = coordinator.submit_cells(_cells(1))

        def explode(cell):
            raise SimulationHang(
                "no forward progress", diagnostics={"series": "t"}
            )

        worker = _worker(coordinator, canned_result, run_cell=explode)
        assert worker.step() == "ran"
        assert worker.cells_failed == 1
        states = {c["key"]: c["state"] for c in coordinator.cell_states()}
        assert states[keys[0]] == "failed"
        coordinator.close()

    def test_unexpected_exception_does_not_kill_the_worker(
        self, tmp_path, canned_result
    ):
        coordinator = _coordinator(tmp_path, max_attempts=1)
        coordinator.submit_cells(_cells(1))

        def explode(cell):
            raise RuntimeError("cosmic ray")

        worker = _worker(coordinator, canned_result, run_cell=explode)
        assert worker.step() == "ran"
        assert worker.cells_failed == 1
        coordinator.close()

    def test_unreachable_coordinator_backs_off(self, canned_result):
        class Refusing:
            def request(self, method, path, payload=None):
                raise TransportError("refused")

        slept = []
        worker = DistWorker(
            Refusing(),
            worker_id="w",
            run_cell=lambda cell: canned_result,
            sleep=slept.append,
        )
        assert worker.step() == "unreachable"
        assert worker.step() == "unreachable"
        assert len(slept) == 2
        # Decorrelated jitter: delays grow from the base, stay bounded.
        assert all(0 < delay <= 2.0 for delay in slept)


class TestPushRetries:
    def test_retryable_400_repushes_until_accepted(
        self, tmp_path, canned_result
    ):
        """A torn push (digest-mismatch 400 + retry) is re-sent."""
        coordinator = _coordinator(tmp_path)
        keys = coordinator.submit_cells(_cells(1))
        inner = LocalTransport(coordinator)
        tears = {"left": 2}

        class TearFirst:
            """Tears the first N /dist/complete bodies, then heals."""

            def request(self, method, path, payload=None):
                if path == "/dist/complete" and tears["left"] > 0:
                    tears["left"] -= 1
                    return inner.request(
                        method,
                        path,
                        dict(payload, result=payload["result"][:10]),
                    )
                return inner.request(method, path, payload)

        worker = DistWorker(
            TearFirst(),
            worker_id="w",
            poll_s=0.0,
            run_cell=lambda cell: canned_result,
            sleep=lambda _s: None,
        )
        assert worker.step() == "ran"
        assert worker.cells_done == 1
        assert tears["left"] == 0
        assert coordinator.result_strings(keys) == [
            canned_result.canonical_json()
        ]
        coordinator.close()

    def test_lost_responses_double_push_harmlessly(
        self, tmp_path, canned_result
    ):
        """drop_response on the completion push → the worker re-pushes;
        the coordinator's fencing makes the duplicate a no-op."""
        coordinator = _coordinator(tmp_path)
        keys = coordinator.submit_cells(_cells(1))
        drops = {"left": 1}
        inner = LocalTransport(coordinator)

        class DropOnce:
            def request(self, method, path, payload=None):
                status, body = inner.request(method, path, payload)
                if path == "/dist/complete" and drops["left"] > 0:
                    drops["left"] -= 1
                    raise TransportError("response lost")
                return status, body

        worker = DistWorker(
            DropOnce(),
            worker_id="w",
            poll_s=0.0,
            run_cell=lambda cell: canned_result,
            sleep=lambda _s: None,
        )
        assert worker.step() == "ran"
        # First delivery landed (then its response was lost), so the
        # re-push is a duplicate — discarded, worker counts abandoned.
        assert worker.cells_done + worker.cells_abandoned == 1
        counts = CellJournal.terminal_counts(str(tmp_path / "cells.jsonl"))
        assert counts.get(keys[0]) == 1
        assert coordinator.result_strings(keys) == [
            canned_result.canonical_json()
        ]
        coordinator.close()


class TestFencedWorker:
    def test_fenced_heartbeat_abandons_the_cell(
        self, tmp_path, canned_result
    ):
        """If the coordinator re-leases mid-run, the worker must not
        push (its push would be discarded anyway)."""
        coordinator = _coordinator(tmp_path, lease_ttl=30.0)
        coordinator.submit_cells(_cells(1))
        transport = LocalTransport(coordinator)
        worker = DistWorker(
            transport,
            worker_id="w",
            poll_s=0.0,
            sleep=lambda _s: None,
        )

        def run_and_get_fenced(cell):
            # Simulate the lease being revoked while the cell runs.
            lease = coordinator.ledger.leases.current(
                coordinator.cell_states()[0]["key"]
            )
            coordinator.ledger.leases.revoke(lease.job_id)
            # The worker's own heartbeat discovers the fence.
            status, body = transport.request(
                "POST",
                "/dist/heartbeat",
                {"worker": "w", "key": lease.job_id,
                 "attempt": lease.attempt},
            )
            assert body == {"ok": False}
            return canned_result

        worker.run_cell = run_and_get_fenced
        worker.step()
        # The push (if any) must have been discarded — never accepted.
        assert worker.cells_done == 0
        states = coordinator.counts()
        assert states["done"] == 0
        coordinator.close()


class TestFleetByteIdentity:
    def test_two_workers_reassemble_byte_identical(self, tmp_path):
        """Real simulations, two workers, seeded flaky channel: the
        reassembled sweep matches the serial oracle byte for byte."""
        cells = _cells(3)
        oracle = [execute_cell(cell).canonical_json() for cell in cells]
        # duplicate/drop_response on the lease route can strand a granted
        # lease (the worker never sees its response) — a short TTL plus
        # maintain() in the drive loop lets those orphans expire back
        # into the queue, exactly as the real coordinator tick would.
        coordinator = _coordinator(
            tmp_path, lease_ttl=0.2, max_attempts=50
        )
        keys = coordinator.submit_cells(cells)
        spec = FaultSpec(duplicate=0.3, drop_response=0.2)
        workers = [
            DistWorker(
                FaultyTransport(
                    LocalTransport(coordinator), spec, seed=i,
                    sleep=lambda _s: None,
                ),
                worker_id=f"w{i}",
                poll_s=0.0,
                push_retries=16,
                sleep=lambda _s: None,
            )
            for i in range(2)
        ]
        guard = 0
        while not coordinator.all_terminal():
            for worker in workers:
                worker.step()
            coordinator.maintain()
            time.sleep(0.01)
            guard += 1
            assert guard < 400, "fleet never drained"
        assert coordinator.result_strings(keys) == oracle
        counts = CellJournal.terminal_counts(str(tmp_path / "cells.jsonl"))
        assert all(counts.get(k) == 1 for k in keys)
        coordinator.close()
