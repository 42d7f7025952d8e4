"""The distributed table of the chaos campaign: attack ``repro.dist``.

``python -m repro.harness chaos --distributed`` points the seeded
adversary at the coordinator/worker sharding protocol:

1. **worker sigkill** — a real ``repro.serve`` daemon (started with
   ``--dist-journal``) shards a sweep; a real worker subprocess is
   SIGKILLed while ``/dist/status`` shows it holding a lease.  The
   lease must expire, the cell re-queue, and a replacement worker
   finish the sweep byte-identical to the serial oracle — with exactly
   one terminal state per cell in the cell journal and
   ``dist_lease_expirations_total`` visible on ``/metrics``.
2. **coordinator restart** — the daemon itself is SIGKILLed after a
   worker finished one cell and while another cell is leased; a
   restart on the same journals re-queues the leased cell, a fresh
   worker finishes, ``/dist/assemble`` equals the oracle, every cell
   is terminal exactly once, and SIGTERM drains with exit 0.
3. **faulty fleet** — in-process workers pull through a seeded
   :class:`~repro.dist.faultnet.FaultyTransport` (refusals, torn
   bodies, duplicated deliveries, lost responses).  Whatever the
   channel does, reassembly must be byte-identical and every cell
   terminal exactly once.
4. **partition** — a one-way partition grants a lease whose response
   never reaches the worker (state mutated, owner oblivious), then a
   total partition silences a live lease holder.  Both leases must
   expire and re-queue; the healed holder's late push must be fenced
   off as stale, its heartbeat refused.
5. **duplicate push** — a verbatim replay of an accepted completion
   must be discarded as a duplicate.
6. **torn body** — a result string torn in flight must fail digest
   verification with ``retry`` (so the worker re-pushes the true
   bytes, which are then accepted), and a torn wire body is a 400.

Exit codes match :mod:`repro.harness.chaos`: 0 pass, 1 verification
failure.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
    Scenario,
    campaign_cells,
    on_engine,
    oracle,
    tiny,
    wait_for,
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


def _matrix(campaign: Campaign) -> List[Cell]:
    """The campaign sweep: one deliberately slow cell, then tiny ones.

    The first cell runs for north of a second on purpose — it is the
    SIGKILL window.  Tiny cells finish in ~0.1 s, far too fast to
    reliably murder a worker mid-cell.
    """
    slow = GPUConfig.preset(
        "naive", num_cores=4, warps_per_core=48, warp_width=32
    )
    rows = [
        ("slow", "bfs", slow),
        ("aug", "kmeans", tiny("augmented")),
        ("base", "bfs", tiny("no_tlb")),
    ]
    if not campaign.quick:
        rows += [
            ("naive", "kmeans", tiny("naive")),
            ("ideal", "bfs", tiny("ideal")),
        ]
    return campaign_cells(campaign, rows)


def _worker(daemon: Daemon, worker_id: str, *args: str) -> Proc:
    """A ``python -m repro.harness worker`` subprocess, SIGKILL-able."""
    return Proc(
        "repro.harness", "worker", "--coordinator", daemon.base_url,
        "--id", worker_id, "--poll", "0.05", *args,
    )


def _run_worker(
    c: Campaign, daemon: Daemon, worker_id: str, cells: int
) -> None:
    """Run a worker until it has finished ``cells`` cells; it exits 0."""
    proc = _worker(daemon, worker_id, "--max-cells", str(cells))
    code = proc.wait(SWEEP_TIMEOUT)
    c.check(code == 0, f"worker {worker_id} exited {code}")


def _shard(c: Campaign, http: HttpTransport) -> List[str]:
    """``POST /dist/shard`` the campaign's cells; their keys."""
    wires = [cell_to_wire(cell) for cell in c.cells]
    status, body = http.request("POST", "/dist/shard", {"cells": wires})
    if status != 200:
        raise RuntimeError(f"shard returned {status}: {body}")
    c.step("sharded", f"{len(body['keys'])} cells via /dist/shard")
    return body["keys"]


def _assembled(http: HttpTransport, keys: List[str]) -> Optional[List[Dict]]:
    """The ``/dist/assemble`` rows once every cell is terminal."""
    status, body = http.request("POST", "/dist/assemble", {"keys": keys})
    return body["cells"] if status == 200 and body.get("complete") else None


def _lease_of(http: HttpTransport, worker: str) -> Optional[Dict[str, Any]]:
    """A lease ``/dist/status`` shows ``worker`` holding."""
    _, view = http.request("GET", "/dist/status")
    owned = [lease for lease in view.get("leases", [])
             if lease.get("owner") == worker]
    return owned[0] if owned else None


def worker_sigkill(c: Campaign) -> str:
    """SIGKILL a real worker holding a real lease; a replacement ends
    the sweep once the lease expires."""
    journal = os.path.join(c.tmp, "sigkill-cells.jsonl")
    with Daemon(
        c.tmp, "sigkill",
        "--journal", os.path.join(c.tmp, "sigkill-jobs.jsonl"),
        "--dist-journal", journal,
        "--dist-lease-ttl", str(KILL_LEASE_TTL),
        "--dist-max-attempts", "5",
    ) as daemon:
        http = HttpTransport(daemon.base_url)
        keys = _shard(c, http)
        # One worker alone, so the lease we see is necessarily its.
        with _worker(daemon, "w-victim") as victim:
            held = wait_for(
                lambda: _lease_of(http, "w-victim"),
                STARTUP_TIMEOUT,
                "lease owned by the victim worker in /dist/status",
            )
            victim.kill()
        c.step(
            "worker SIGKILLed",
            f"held {held['key'][:12]}… attempt {held['attempt']}",
        )
        with _worker(daemon, "w-replacement"):
            rows = wait_for(
                lambda: _assembled(http, keys),
                SWEEP_TIMEOUT,
                "completed sweep after the kill",
            )
        not_done = [row["key"] for row in rows if row["state"] != "done"]
        c.check(
            not not_done, f"cells ended non-done after recovery: {not_done}"
        )
        verdict = c.verdict(
            [row["result"] for row in rows],
            counts=CellJournal.terminal_counts(journal),
            keys=keys,
        )
        expirations = daemon.metrics_value("dist_lease_expirations_total")
    c.check(
        expirations >= 1,
        "dist_lease_expirations_total never incremented — the dead "
        "worker's lease never expired",
    )
    return f"expirations={expirations:.0f}, {verdict}"


def coordinator_restart(c: Campaign) -> str:
    """SIGKILL the coordinator while a lease is held; a restart on the
    same journals finishes the sweep."""
    journal = os.path.join(c.tmp, "restart-cells.jsonl")
    journals = (
        "--journal", os.path.join(c.tmp, "restart-jobs.jsonl"),
        "--dist-journal", journal,
    )
    with Daemon(c.tmp, "restart-a", *journals) as daemon:
        http = HttpTransport(daemon.base_url)
        keys = _shard(c, http)
        _run_worker(c, daemon, "w-before", 1)
        # Another cell is mid-lease when the coordinator dies.
        _, body = http.request("POST", "/dist/lease", {"worker": "doomed"})
        held = body["lease"]
        if held is None:
            raise RuntimeError(f"no cell left to hold under a lease: {body}")
        daemon.kill()
    with Daemon(c.tmp, "restart-b", *journals) as daemon:
        http = HttpTransport(daemon.base_url)
        _run_worker(c, daemon, "w-after", len(keys) - 1)
        rows = wait_for(
            lambda: _assembled(http, keys),
            SWEEP_TIMEOUT,
            "completed sweep after the restart",
        )
        code = daemon.terminate()
    c.check(code == 0, f"graceful drain exited {code} (want 0)")
    verdict = c.verdict(
        [row["result"] for row in rows],
        counts=CellJournal.terminal_counts(journal),
        keys=keys,
    )
    return f"held {held['key'][:12]}… at the SIGKILL, {verdict}"


@contextmanager
def coordinator(
    c: Campaign, tag: str, **options: Any
) -> Iterator[DistCoordinator]:
    """An in-process :class:`DistCoordinator` on a fresh cell journal,
    with its own metrics registry; closed on exit."""
    journal = os.path.join(c.tmp, f"{tag}-cells.jsonl")
    coord = DistCoordinator(journal, registry=MetricsRegistry(), **options)
    try:
        yield coord
    finally:
        coord.close()


def _drive(coord: DistCoordinator, worker: DistWorker, what: str) -> None:
    """Step ``worker`` until every cell is terminal."""

    def terminal() -> bool:
        if coord.all_terminal():
            return True
        coord.maintain()
        worker.step()
        return False

    wait_for(terminal, 60.0, what)


def _cell_verdict(
    c: Campaign, coord: DistCoordinator, keys: List[str], expected: List[str]
) -> str:
    """The recovery verdict on an in-process coordinator's cells."""
    return c.verdict(
        coord.result_strings(keys),
        expected,
        CellJournal.terminal_counts(coord.ledger.journal.path),
        keys,
    )


def faulty_fleet(c: Campaign) -> str:
    """An in-process fleet behind seeded channel faults."""
    spec = FaultSpec(
        refuse=0.10, tear=0.08, duplicate=0.15, drop_response=0.15
    )
    with coordinator(
        c, "fleet", lease_ttl=3.0, max_attempts=8, backoff_seed=c.seed
    ) as coord:
        keys = coord.submit_cells(c.cells)
        transports = [
            FaultyTransport(LocalTransport(coord), spec, seed=c.seed * 101 + i)
            for i in range(2)
        ]
        workers = [
            DistWorker(
                transport,
                worker_id=f"faulty-{i}",
                poll_s=0.02,
                push_retries=24,
                backoff_seed=c.seed + i,
            )
            for i, transport in enumerate(transports)
        ]
        threads = [
            threading.Thread(
                target=worker.run, kwargs={"idle_exit_s": 1.0}, daemon=True
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()

        def drained() -> bool:
            coord.maintain()
            return not any(thread.is_alive() for thread in threads)

        try:
            wait_for(drained, SWEEP_TIMEOUT, "drain of the faulty fleet")
        finally:
            for worker in workers:
                worker.stop.set()
            for thread in threads:
                thread.join(timeout=10)
        # Backoff'd re-queues can outlive the fleet's idle-exit; a
        # clean sweeper drains the stragglers (still exactly-once).
        sweeper = DistWorker(
            LocalTransport(coord), worker_id="sweeper", poll_s=0.02
        )
        _drive(coord, sweeper, "terminal cells after the clean sweeper")
        failed = coord.counts().get("failed")
        c.check(
            not failed,
            f"{failed} cell(s) failed structurally — channel faults must "
            "never poison a cell",
        )
        verdict = _cell_verdict(c, coord, keys, c.expected)
    injected: Counter = Counter()
    for transport in transports:
        injected.update(transport.injected)
    c.check(
        sum(injected.values()) >= 3,
        f"almost no faults injected ({dict(injected)}) — the campaign "
        "proved nothing",
    )
    return f"injected={dict(injected)}, {verdict}"


def _cells(c: Campaign, *rows: tuple) -> List[Cell]:
    """A scenario's own cells: ``(label, workload, preset)`` rows on tiny
    machines and the campaign's engine."""
    return [
        on_engine(
            Cell(label=label, workload=workload, config=tiny(preset),
                 miss_scale=1.0),
            c.engine,
        )
        for label, workload, preset in rows
    ]


def _lost(channel: FaultyTransport, path: str, body: Dict[str, Any]) -> bool:
    """Whether a POST met a partition (no response reached the caller)."""
    try:
        channel.request("POST", path, body)
    except ConnectionError:
        return True
    return False


def partition(c: Campaign) -> str:
    """Partitions around a live lease holder."""
    ttl = 0.3
    cells = _cells(c, ("p1", "bfs", "naive"), ("p2", "bfs", "augmented"))
    expected = oracle(cells)
    with coordinator(
        c, "partition", lease_ttl=ttl, max_attempts=6, backoff_seed=c.seed
    ) as coord:
        keys = coord.submit_cells(cells)
        channel = FaultyTransport(
            LocalTransport(coord), FaultSpec(), seed=c.seed
        )

        # One-way partition: the lease request LANDS (coordinator
        # state mutates) but the response is lost — the owner never
        # learns it holds anything.  The worst case for fencing.
        channel.partition(one_way=True)
        c.check(
            _lost(channel, "/dist/lease", {"worker": "wA"}),
            "a one-way partition returned a response",
        )
        channel.heal()
        orphaned = [
            lease
            for lease in coord.status()["leases"]
            if lease["owner"] == "wA"
        ]
        c.check(
            orphaned,
            "the one-way-partitioned lease request did not land "
            "coordinator-side",
        )
        c.step("one-way partition", f"orphaned lease: {bool(orphaned)}")
        # The oblivious owner never heartbeats; the lease expires.
        time.sleep(ttl * 1.5)
        coord.maintain()

        # Now a knowing holder: wA leases legitimately, computes its
        # result — then a TOTAL partition silences it past the TTL.
        _, body = channel.request("POST", "/dist/lease", {"worker": "wA"})
        lease = body.get("lease")
        if lease is None:
            raise RuntimeError(
                "wA could not re-lease after the one-way orphan expired"
            )
        beat = {
            "worker": "wA", "key": lease["key"], "attempt": lease["attempt"]
        }
        held_cell = cell_from_wire(lease["cell"])
        late_result = execute_cell(held_cell).canonical_json()
        channel.partition(one_way=False)
        c.check(
            _lost(channel, "/dist/heartbeat", beat),
            "a total partition let a heartbeat through",
        )
        time.sleep(ttl * 1.5)
        coord.maintain()
        expirations = coord.registry.counter(
            "dist_lease_expirations_total"
        ).value()
        c.check(
            expirations >= 2,
            f"{expirations:.0f} lease expiration(s) recorded (want 2: the "
            "orphan and the silenced holder)",
        )

        # wB finishes the whole sweep while wA is partitioned away.
        wb = DistWorker(LocalTransport(coord), worker_id="wB", poll_s=0.02)
        _drive(coord, wb, "sweep drained by wB")

        # The partition heals; wA pushes its stale result and
        # heartbeats.  Both must bounce off the fence.
        channel.heal()
        _, body = channel.request(
            "POST",
            "/dist/complete",
            completion_push(
                "wA", lease["key"], lease["attempt"], held_cell, late_result
            ),
        )
        c.check(
            not (body.get("accepted") or body.get("retry")),
            f"the healed holder's stale push was not discarded ({body})",
        )
        stale = coord.registry.counter("dist_stale_results_total")
        c.check(
            stale.value(reason="duplicate") + stale.value(reason="fenced")
            >= 1,
            "dist_stale_results_total never counted the stale push",
        )
        _, body = channel.request("POST", "/dist/heartbeat", beat)
        c.check(
            not body.get("ok"),
            "the healed holder's heartbeat was renewed despite the fence",
        )
        verdict = _cell_verdict(c, coord, keys, expected)
    return (
        f"expirations={expirations:.0f}, stale push "
        f"{body.get('ok') and 'LEAKED' or 'fenced'}, {verdict}"
    )


def _leased_push(
    channel: LocalTransport, worker: str
) -> Tuple[str, Dict[str, Any]]:
    """Lease a cell as ``worker`` and run it: its true result string
    and the completion push carrying it."""
    _, body = channel.request("POST", "/dist/lease", {"worker": worker})
    lease = body["lease"]
    cell = cell_from_wire(lease["cell"])
    result_json = execute_cell(cell).canonical_json()
    push = completion_push(
        worker, lease["key"], lease["attempt"], cell, result_json
    )
    return result_json, push


def duplicate_push(c: Campaign) -> str:
    """A verbatim replay of an accepted completion push."""
    cells = _cells(c, ("d1", "kmeans", "naive"))
    with coordinator(c, "duplicate", lease_ttl=30.0, max_attempts=3) as coord:
        keys = coord.submit_cells(cells)
        channel = LocalTransport(coord)
        _, push = _leased_push(channel, "w1")
        _, first = channel.request("POST", "/dist/complete", push)
        _, replay = channel.request("POST", "/dist/complete", push)
        c.check(
            first.get("accepted"), f"the first push was not accepted ({first})"
        )
        c.check(
            not (replay.get("accepted") or replay.get("retry")),
            f"the replayed push was not discarded ({replay})",
        )
        c.check(
            replay.get("reason") == "duplicate",
            f"replay reason {replay.get('reason')!r} (want 'duplicate')",
        )
        c.check(
            coord.registry.counter("dist_stale_results_total").value(
                reason="duplicate"
            ) >= 1,
            "dist_stale_results_total{duplicate} never incremented",
        )
        verdict = _cell_verdict(c, coord, keys, oracle(cells))
    return f"replay → {replay}, {verdict}"


def torn_body(c: Campaign) -> str:
    """A result string torn in flight, then a torn wire body."""
    cells = _cells(c, ("d2", "kmeans", "augmented"))
    with coordinator(c, "torn", lease_ttl=30.0, max_attempts=3) as coord:
        keys = coord.submit_cells(cells)
        channel = LocalTransport(coord)
        result_json, push = _leased_push(channel, "w2")
        # The result string tore in flight; the digest is over the
        # true bytes, so verification must catch it.
        torn = dict(push, result=result_json[: len(result_json) // 2])
        status, verdict = channel.request("POST", "/dist/complete", torn)
        c.check(
            status == 400 and not verdict.get("accepted"),
            f"the torn push was accepted ({status}, {verdict})",
        )
        c.check(
            verdict.get("retry") and verdict.get("reason") == "digest",
            f"expected a retryable digest rejection, got {verdict}",
        )
        c.check(
            coord.registry.counter("dist_rejected_results_total").value(
                reason="digest"
            ) >= 1,
            "dist_rejected_results_total{digest} never incremented",
        )
        # A whole-body tear (invalid JSON on the wire) must be a 400
        # too, never a half-parsed push.
        faulty = FaultyTransport(
            LocalTransport(coord), FaultSpec(tear=1.0), seed=c.seed
        )
        status, _ = faulty.request("POST", "/dist/complete", push)
        c.check(
            status == 400, f"a torn wire body returned {status} (want 400)"
        )
        # The worker still holds the true bytes: the clean re-push
        # must be accepted.
        _, healed = channel.request("POST", "/dist/complete", push)
        c.check(
            healed.get("accepted"),
            f"the clean re-push was rejected ({healed})",
        )
        identical = _cell_verdict(c, coord, keys, oracle(cells))
    return f"verdict={verdict}, re-push ok, {identical}"


SCENARIOS: Dict[str, Scenario] = {
    "worker sigkill": worker_sigkill,
    "coordinator restart": coordinator_restart,
    "faulty fleet": faulty_fleet,
    "partition": partition,
    "duplicate push": duplicate_push,
    "torn body": torn_body,
}


def run_dist_campaign(**params: Any) -> int:
    """Execute the distributed campaign; returns the process exit code."""
    c = Campaign("chaos[dist]", **params)
    c.cells = _matrix(c)
    return c.run(
        SCENARIOS,
        "oracle",
        f"{len(c.cells)} cells, serial, in-process",
        lambda: oracle(c.cells),
        lambda: f"seed {c.seed}, {len(c.cells)} cells",
    )
