"""The distributed half of the chaos campaign: attack ``repro.dist``.

``python -m repro.harness chaos --distributed`` points the seeded
adversary at the coordinator/worker sharding protocol:

1. **worker SIGKILL mid-cell** — a real ``repro.serve`` daemon (started
   with ``--dist-journal``) shards a sweep; a real worker subprocess is
   SIGKILLed while ``/dist/status`` shows it holding a lease.  The
   lease must expire, the cell re-queue, and a replacement worker
   finish the sweep byte-identical to the serial oracle — with exactly
   one terminal state per cell in the cell journal and
   ``dist_lease_expirations_total`` visible on ``/metrics``.
2. **seeded faulty fleet** — in-process workers pull through a seeded
   :class:`~repro.dist.faultnet.FaultyTransport` (refusals, torn
   bodies, duplicated deliveries, lost responses).  Whatever the
   channel does, reassembly must be byte-identical and every cell
   terminal exactly once.
3. **partition while holding a lease** — a one-way partition grants a
   lease whose response never reaches the worker (state mutated, owner
   oblivious), then a total partition silences a live lease holder.
   Both leases must expire and re-queue; the healed holder's late push
   must be fenced off as stale, its heartbeat refused.
4. **duplicate completion push + torn result body** — a verbatim
   replay of an accepted completion must be discarded as a duplicate,
   and a result string torn in flight must fail digest verification
   with ``retry`` (so the worker re-pushes the true bytes, which are
   then accepted).

Exit codes match :mod:`repro.harness.chaos`: 0 pass, 1 verification
failure.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.config import GPUConfig
from repro.dist.coordinator import DistCoordinator
from repro.dist.faultnet import FaultSpec, FaultyTransport
from repro.dist.journal import CellJournal
from repro.dist.protocol import cell_from_wire, cell_to_wire, completion_push
from repro.dist.transport import HttpTransport, LocalTransport
from repro.dist.worker import DistWorker
from repro.harness.chaos import (
    STARTUP_TIMEOUT,
    Campaign,
    Daemon,
    Proc,
    on_engine,
    oracle,
    terminal_once,
    tiny,
)
from repro.parallel.cells import Cell, execute_cell
from repro.prof.registry import MetricsRegistry

#: Wall-clock budget for a sweep (generous; the campaign fails loudly,
#: not flakily).
SWEEP_TIMEOUT = 180.0

#: Lease TTL for the subprocess scenario — long enough for heartbeats
#: from a healthy worker (interval ttl/3), short enough that a SIGKILLed
#: holder is presumed dead quickly.
KILL_LEASE_TTL = 2.0


def _matrix(quick: bool, workloads: Optional[List[str]] = None) -> List[Cell]:
    """The campaign sweep: one deliberately slow cell, then tiny ones.

    The first cell runs for north of a second on purpose — it is the
    SIGKILL window.  Tiny cells finish in ~0.1 s, far too fast to
    reliably murder a worker mid-cell.
    """

    def pick(index: int, default: str) -> str:
        if workloads is None:
            return default
        return workloads[index % len(workloads)]

    slow = GPUConfig.preset(
        "naive", num_cores=4, warps_per_core=48, warp_width=32
    )
    cells = [
        Cell(label="slow", workload=pick(0, "bfs"), config=slow,
             miss_scale=1.0),
        Cell(label="aug", workload=pick(1, "kmeans"),
             config=tiny("augmented"), miss_scale=1.0),
        Cell(label="base", workload=pick(2, "bfs"), config=tiny("no_tlb"),
             miss_scale=1.0),
    ]
    if not quick:
        cells += [
            Cell(label="naive", workload=pick(3, "kmeans"),
                 config=tiny("naive"), miss_scale=1.0),
            Cell(label="ideal", workload=pick(4, "bfs"),
                 config=tiny("ideal"), miss_scale=1.0),
        ]
    return cells


def _drive_to_terminal(
    coordinator: DistCoordinator,
    worker: DistWorker,
    deadline_s: float = SWEEP_TIMEOUT,
) -> bool:
    """Step ``worker`` until every cell is terminal (False = timed out)."""
    deadline = time.monotonic() + deadline_s
    while not coordinator.all_terminal():
        if time.monotonic() > deadline:
            return False
        coordinator.maintain()
        worker.step()
    return True


def _worker(coordinator_url: str, worker_id: str) -> Proc:
    """A ``python -m repro.harness worker`` subprocess, SIGKILL-able."""
    return Proc(
        "repro.harness", "worker", "--coordinator", coordinator_url,
        "--id", worker_id, "--poll", "0.05",
    )


def _scenario_worker_sigkill(
    campaign: Campaign,
    cells: List[Cell],
    expected: List[str],
) -> None:
    """Scenario 1: SIGKILL a real worker holding a real lease."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-dist-") as tmp:
        dist_journal = os.path.join(tmp, "cells.jsonl")
        daemon = Daemon(
            tmp, "a",
            "--journal", os.path.join(tmp, "serve-journal.jsonl"),
            "--dist-journal", dist_journal,
            "--dist-lease-ttl", str(KILL_LEASE_TTL),
            "--dist-max-attempts", "5",
        )
        transport = HttpTransport(daemon.base_url)
        victim = replacement = None
        try:
            status, body = transport.request(
                "POST",
                "/dist/shard",
                {"cells": [cell_to_wire(cell) for cell in cells]},
            )
            if status != 200:
                campaign.fail(f"sigkill: shard returned {status}: {body}")
                return
            keys = body["keys"]
            campaign.step("sharded", f"{len(keys)} cells via /dist/shard")

            # One worker alone, so the lease we see is necessarily its.
            victim = _worker(daemon.base_url, "w-victim")
            held: Optional[Dict[str, Any]] = None
            deadline = time.monotonic() + STARTUP_TIMEOUT
            while time.monotonic() < deadline:
                _, view = transport.request("GET", "/dist/status")
                leases = [
                    lease
                    for lease in view.get("leases", [])
                    if lease.get("owner") == "w-victim"
                ]
                if leases:
                    held = leases[0]
                    break
                time.sleep(0.02)
            if held is None:
                campaign.fail(
                    "sigkill: the victim worker never appeared as a "
                    "lease owner in /dist/status"
                )
                return
            victim.kill()
            campaign.step(
                "worker SIGKILLed",
                f"held {held['key'][:12]}… attempt {held['attempt']}",
            )

            # A replacement (plus lease expiry) must finish the sweep.
            replacement = _worker(daemon.base_url, "w-replacement")
            deadline = time.monotonic() + SWEEP_TIMEOUT
            assembled: Optional[Dict[str, Any]] = None
            while time.monotonic() < deadline:
                status, assembled = transport.request(
                    "POST", "/dist/assemble", {"keys": keys}
                )
                if status == 200 and assembled.get("complete"):
                    break
                time.sleep(0.1)
            else:
                campaign.fail(
                    "sigkill: the sweep never completed after the kill"
                )
                return

            rows = assembled["cells"]
            not_done = [r["key"] for r in rows if r["state"] != "done"]
            if not_done:
                campaign.fail(
                    f"sigkill: cells ended non-done after recovery: "
                    f"{not_done}"
                )
            reassembled = [row["result"] for row in rows]
            identical = reassembled == expected
            if not identical:
                campaign.fail(
                    "sigkill: reassembled results are not byte-identical "
                    "to the serial oracle"
                )
            complaint = terminal_once(
                CellJournal.terminal_counts(dist_journal), keys
            )
            if complaint:
                campaign.fail(f"sigkill: {complaint}")
            expirations = daemon.metrics_value(
                "dist_lease_expirations_total"
            )
            if expirations < 1:
                campaign.fail(
                    "sigkill: dist_lease_expirations_total never "
                    "incremented — the dead worker's lease never expired"
                )
            campaign.step(
                "worker sigkill",
                f"expirations={expirations:.0f}, "
                + ("identical" if identical else "MISMATCH"),
            )
        finally:
            for proc in (victim, replacement):
                if proc is not None:
                    proc.kill()
            daemon.kill()


def _scenario_faulty_fleet(
    campaign: Campaign,
    seed: int,
    cells: List[Cell],
    expected: List[str],
) -> None:
    """Scenario 2: an in-process fleet behind seeded channel faults."""
    spec = FaultSpec(
        refuse=0.10, tear=0.08, duplicate=0.15, drop_response=0.15
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-dist-") as tmp:
        registry = MetricsRegistry()
        coordinator = DistCoordinator(
            os.path.join(tmp, "cells.jsonl"),
            registry=registry,
            lease_ttl=3.0,
            max_attempts=8,
            backoff_seed=seed,
        )
        try:
            keys = coordinator.submit_cells(cells)
            transports = [
                FaultyTransport(
                    LocalTransport(coordinator), spec, seed=seed * 101 + i
                )
                for i in range(2)
            ]
            workers = [
                DistWorker(
                    transport,
                    worker_id=f"faulty-{i}",
                    poll_s=0.02,
                    push_retries=24,
                    backoff_seed=seed + i,
                )
                for i, transport in enumerate(transports)
            ]
            threads = [
                threading.Thread(
                    target=worker.run,
                    kwargs={"idle_exit_s": 1.0},
                    daemon=True,
                )
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + SWEEP_TIMEOUT
            while any(t.is_alive() for t in threads):
                if time.monotonic() > deadline:
                    campaign.fail("faulty fleet: workers never drained")
                    for worker in workers:
                        worker.stop.set()
                    break
                coordinator.maintain()
                time.sleep(0.05)
            for thread in threads:
                thread.join(timeout=10)

            # Backoff'd re-queues can outlive the fleet's idle-exit; a
            # clean sweeper drains the stragglers (still exactly-once).
            if not coordinator.all_terminal():
                sweeper = DistWorker(
                    LocalTransport(coordinator),
                    worker_id="sweeper",
                    poll_s=0.02,
                )
                if not _drive_to_terminal(coordinator, sweeper, 60.0):
                    campaign.fail(
                        "faulty fleet: cells still non-terminal after "
                        "the clean sweeper"
                    )
                    return

            counts = coordinator.counts()
            if counts.get("failed"):
                campaign.fail(
                    f"faulty fleet: {counts['failed']} cell(s) failed "
                    "structurally — channel faults must never poison a "
                    "cell"
                )
            strings = coordinator.result_strings(keys)
            identical = strings == expected
            if not identical:
                campaign.fail(
                    "faulty fleet: reassembled results are not "
                    "byte-identical to the serial oracle"
                )
            complaint = terminal_once(
                CellJournal.terminal_counts(coordinator.ledger.journal.path), keys
            )
            if complaint:
                campaign.fail(f"faulty fleet: {complaint}")
            injected: Dict[str, int] = {}
            for transport in transports:
                for name, count in transport.injected.items():
                    injected[name] = injected.get(name, 0) + count
            if sum(injected.values()) < 3:
                campaign.fail(
                    f"faulty fleet: almost no faults injected "
                    f"({injected}) — the campaign proved nothing"
                )
            campaign.step(
                "faulty fleet",
                f"injected={injected}, "
                + ("identical" if identical else "MISMATCH"),
            )
        finally:
            coordinator.close()


def _scenario_partition(
    campaign: Campaign,
    seed: int,
    engine: Optional[str],
) -> None:
    """Scenario 3: partitions around a live lease holder."""
    ttl = 0.3
    cells = [
        on_engine(
            Cell(label="p1", workload="bfs", config=tiny("naive"),
                 miss_scale=1.0),
            engine,
        ),
        on_engine(
            Cell(label="p2", workload="bfs", config=tiny("augmented"),
                 miss_scale=1.0),
            engine,
        ),
    ]
    expected = oracle(cells)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-dist-") as tmp:
        registry = MetricsRegistry()
        coordinator = DistCoordinator(
            os.path.join(tmp, "cells.jsonl"),
            registry=registry,
            lease_ttl=ttl,
            max_attempts=6,
            backoff_seed=seed,
        )
        try:
            keys = coordinator.submit_cells(cells)
            channel = FaultyTransport(
                LocalTransport(coordinator), FaultSpec(), seed=seed
            )

            # One-way partition: the lease request LANDS (coordinator
            # state mutates) but the response is lost — the owner never
            # learns it holds anything.  The worst case for fencing.
            channel.partition(one_way=True)
            try:
                channel.request("POST", "/dist/lease", {"worker": "wA"})
                campaign.fail(
                    "partition: a one-way partition returned a response"
                )
            except ConnectionError:
                pass
            channel.heal()
            orphaned = [
                lease
                for lease in coordinator.status()["leases"]
                if lease["owner"] == "wA"
            ]
            if not orphaned:
                campaign.fail(
                    "partition: the one-way-partitioned lease request "
                    "did not land coordinator-side"
                )
            campaign.step(
                "one-way partition",
                f"orphaned lease: {bool(orphaned)}",
            )
            # The oblivious owner never heartbeats; the lease expires.
            time.sleep(ttl * 1.5)
            coordinator.maintain()

            # Now a knowing holder: wA leases legitimately, computes its
            # result — then a TOTAL partition silences it past the TTL.
            status, body = channel.request(
                "POST", "/dist/lease", {"worker": "wA"}
            )
            lease = body.get("lease")
            if lease is None:
                campaign.fail(
                    "partition: wA could not re-lease after the one-way "
                    "orphan expired"
                )
                return
            held_key, held_attempt = lease["key"], lease["attempt"]
            held_cell = cell_from_wire(lease["cell"])
            late_result = execute_cell(held_cell).canonical_json()
            channel.partition(one_way=False)
            try:
                channel.request(
                    "POST",
                    "/dist/heartbeat",
                    {"worker": "wA", "key": held_key,
                     "attempt": held_attempt},
                )
                campaign.fail(
                    "partition: a total partition let a heartbeat through"
                )
            except ConnectionError:
                pass
            time.sleep(ttl * 1.5)
            coordinator.maintain()
            expirations = registry.counter(
                "dist_lease_expirations_total"
            ).value()
            if expirations < 2:
                campaign.fail(
                    f"partition: {expirations:.0f} lease expiration(s) "
                    "recorded (want 2: the orphan and the silenced holder)"
                )

            # wB finishes the whole sweep while wA is partitioned away.
            wb = DistWorker(
                LocalTransport(coordinator), worker_id="wB", poll_s=0.02
            )
            if not _drive_to_terminal(coordinator, wb, 60.0):
                campaign.fail("partition: wB never drained the sweep")
                return

            # The partition heals; wA pushes its stale result and
            # heartbeats.  Both must bounce off the fence.
            channel.heal()
            status, body = channel.request(
                "POST",
                "/dist/complete",
                completion_push(
                    "wA", held_key, held_attempt, held_cell, late_result
                ),
            )
            if body.get("accepted") or body.get("retry"):
                campaign.fail(
                    f"partition: the healed holder's stale push was not "
                    f"discarded ({body})"
                )
            stale = registry.counter("dist_stale_results_total")
            if stale.value(reason="duplicate") + stale.value(
                reason="fenced"
            ) < 1:
                campaign.fail(
                    "partition: dist_stale_results_total never counted "
                    "the stale push"
                )
            status, body = channel.request(
                "POST",
                "/dist/heartbeat",
                {"worker": "wA", "key": held_key, "attempt": held_attempt},
            )
            if body.get("ok"):
                campaign.fail(
                    "partition: the healed holder's heartbeat was renewed "
                    "despite the fence"
                )

            strings = coordinator.result_strings(keys)
            identical = strings == expected
            if not identical:
                campaign.fail(
                    "partition: reassembled results are not byte-identical "
                    "to the serial oracle"
                )
            complaint = terminal_once(
                CellJournal.terminal_counts(coordinator.ledger.journal.path), keys
            )
            if complaint:
                campaign.fail(f"partition: {complaint}")
            campaign.step(
                "partition",
                f"expirations={expirations:.0f}, stale push "
                f"{body.get('ok') and 'LEAKED' or 'fenced'}, "
                + ("identical" if identical else "MISMATCH"),
            )
        finally:
            coordinator.close()


def _scenario_duplicate_and_torn(
    campaign: Campaign,
    seed: int,
    engine: Optional[str],
) -> None:
    """Scenario 4: replayed completion pushes and torn result bodies."""
    cells = [
        on_engine(
            Cell(label="d1", workload="kmeans", config=tiny("naive"),
                 miss_scale=1.0),
            engine,
        ),
        on_engine(
            Cell(label="d2", workload="kmeans", config=tiny("augmented"),
                 miss_scale=1.0),
            engine,
        ),
    ]
    expected = oracle(cells)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-dist-") as tmp:
        registry = MetricsRegistry()
        coordinator = DistCoordinator(
            os.path.join(tmp, "cells.jsonl"),
            registry=registry,
            lease_ttl=30.0,
            max_attempts=3,
        )
        try:
            keys = coordinator.submit_cells(cells)
            channel = LocalTransport(coordinator)

            # -- duplicate completion push ----------------------------
            _, body = channel.request(
                "POST", "/dist/lease", {"worker": "w1"}
            )
            lease = body["lease"]
            cell = cell_from_wire(lease["cell"])
            result_json = execute_cell(cell).canonical_json()
            push = completion_push(
                "w1", lease["key"], lease["attempt"], cell, result_json
            )
            _, first = channel.request("POST", "/dist/complete", push)
            _, replay = channel.request("POST", "/dist/complete", push)
            if not first.get("accepted"):
                campaign.fail(
                    f"duplicate: the first push was not accepted ({first})"
                )
            if replay.get("accepted") or replay.get("retry"):
                campaign.fail(
                    f"duplicate: the replayed push was not discarded "
                    f"({replay})"
                )
            if replay.get("reason") != "duplicate":
                campaign.fail(
                    f"duplicate: replay reason {replay.get('reason')!r} "
                    "(want 'duplicate')"
                )
            if registry.counter("dist_stale_results_total").value(
                reason="duplicate"
            ) < 1:
                campaign.fail(
                    "duplicate: dist_stale_results_total{duplicate} "
                    "never incremented"
                )
            campaign.step("duplicate push", f"replay → {replay}")

            # -- torn result body -------------------------------------
            _, body = channel.request(
                "POST", "/dist/lease", {"worker": "w2"}
            )
            lease = body["lease"]
            cell = cell_from_wire(lease["cell"])
            result_json = execute_cell(cell).canonical_json()
            torn = completion_push(
                "w2", lease["key"], lease["attempt"], cell, result_json
            )
            # The result string tore in flight; the digest is over the
            # true bytes, so verification must catch it.
            torn["result"] = result_json[: len(result_json) // 2]
            status, verdict = channel.request(
                "POST", "/dist/complete", torn
            )
            if status != 400 or verdict.get("accepted"):
                campaign.fail(
                    f"torn body: the torn push was accepted "
                    f"({status}, {verdict})"
                )
            if not verdict.get("retry") or verdict.get("reason") != "digest":
                campaign.fail(
                    f"torn body: expected a retryable digest rejection, "
                    f"got {verdict}"
                )
            if registry.counter("dist_rejected_results_total").value(
                reason="digest"
            ) < 1:
                campaign.fail(
                    "torn body: dist_rejected_results_total{digest} "
                    "never incremented"
                )
            # A whole-body tear (invalid JSON on the wire) must be a 400
            # too, never a half-parsed push.
            faulty = FaultyTransport(
                LocalTransport(coordinator),
                FaultSpec(tear=1.0),
                seed=seed,
            )
            status, body2 = faulty.request(
                "POST",
                "/dist/complete",
                dict(torn, result=result_json),
            )
            if status != 400:
                campaign.fail(
                    f"torn body: a torn wire body returned {status} "
                    "(want 400)"
                )
            # The worker still holds the true bytes: the clean re-push
            # must be accepted.
            _, healed = channel.request(
                "POST", "/dist/complete", dict(torn, result=result_json)
            )
            if not healed.get("accepted"):
                campaign.fail(
                    f"torn body: the clean re-push was rejected ({healed})"
                )
            campaign.step("torn body", f"verdict={verdict}, re-push ok")

            strings = coordinator.result_strings(keys)
            identical = strings == expected
            if not identical:
                campaign.fail(
                    "duplicate/torn: results are not byte-identical to "
                    "the serial oracle"
                )
            complaint = terminal_once(
                CellJournal.terminal_counts(coordinator.ledger.journal.path), keys
            )
            if complaint:
                campaign.fail(f"duplicate/torn: {complaint}")
        finally:
            coordinator.close()


def run_dist_campaign(
    *,
    seed: int = 0,
    quick: bool = False,
    workloads: Optional[List[str]] = None,
    verbose: bool = False,
    engine: Optional[str] = None,
) -> int:
    """Execute the distributed campaign; returns the process exit code."""
    campaign = Campaign("chaos[dist]", verbose)
    cells = [on_engine(c, engine) for c in _matrix(quick, workloads)]

    campaign.step("oracle", f"{len(cells)} cells, serial, in-process")
    started = time.monotonic()
    expected = oracle(cells)
    campaign.step("oracle done", f"{time.monotonic() - started:.1f}s")

    _scenario_worker_sigkill(campaign, cells, expected)
    _scenario_faulty_fleet(campaign, seed, cells, expected)
    _scenario_partition(campaign, seed, engine)
    _scenario_duplicate_and_torn(campaign, seed, engine)

    return campaign.exit_code(f"seed {seed}, {len(cells)} cells")
