"""The distributed sweep worker: lease, execute, heartbeat, push.

A worker is a pull loop against one coordinator: lease a cell, rebuild
it from the wire, run it through the path every sweep cell takes
(:class:`repro.parallel.pool.SweepExecutor`, which runs a lone cell
inline through :func:`repro.parallel.cells.execute_cell`), heartbeat
while it runs, then push the result with its fencing token, config
hash, and digest.

Failure posture (the whole point):

- an unreachable coordinator is *normal* — every call retries through
  the shared decorrelated-jitter backoff, and the loop keeps polling;
- a fenced heartbeat means the coordinator presumed this worker dead
  and re-leased the cell: the worker abandons the cell (its late push
  would be discarded anyway) and moves on;
- a push whose response was lost is re-pushed — the coordinator's
  verification pipeline makes the duplicate harmless;
- a structured simulation failure is reported as ``/dist/fail`` so the
  coordinator can budget retries; the worker itself survives.

``python -m repro.harness worker --coordinator URL`` is the CLI face;
``--faults``/``--fault-seed`` wrap the channel in the seeded injector
(:mod:`repro.dist.faultnet`) for chaos campaigns.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.results import SimulationResult
from repro.dist.protocol import cell_from_wire, completion_push
from repro.dist.transport import HttpTransport, TransportError
from repro.obs import log as _log
from repro.parallel.backoff import Backoff
from repro.parallel.cells import Cell, error_payload
from repro.faults.errors import SimulationError

__all__ = ["DistWorker", "main"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class DistWorker:
    """One pull-loop worker against one coordinator transport."""

    def __init__(
        self,
        transport: Any,
        worker_id: Optional[str] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
        poll_s: float = 0.5,
        push_retries: int = 8,
        run_cell: Optional[Callable[[Cell], SimulationResult]] = None,
        backoff_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.transport = transport
        self.worker_id = worker_id or default_worker_id()
        self.retries = retries
        self.timeout = timeout
        self.poll_s = poll_s
        self.push_retries = push_retries
        self.run_cell = run_cell or self._run_cell
        self.sleep = sleep
        #: Backoff for an unreachable coordinator (lease path).
        self._idle_backoff = Backoff(seed=backoff_seed)
        self.log = _log.get_logger("dist.worker", worker=self.worker_id)
        self.stop = threading.Event()
        # Outcome counters (tests and the CLI exit summary read these).
        self.cells_done = 0
        self.cells_failed = 0
        self.cells_abandoned = 0
        self.pushes_lost = 0

    # -- execution ------------------------------------------------------

    def _run_cell(self, cell: Cell) -> SimulationResult:
        """Default executor: the same pipeline local sweeps use."""
        from repro.parallel.pool import SweepExecutor

        executor = SweepExecutor(retries=self.retries, timeout=self.timeout)
        return executor.run([cell])[0]

    # -- heartbeats ------------------------------------------------------

    def _heartbeat_loop(
        self,
        key: str,
        attempt: int,
        interval_s: float,
        fenced: threading.Event,
        done: threading.Event,
    ) -> None:
        while not done.wait(interval_s):
            try:
                status, body = self.transport.request(
                    "POST",
                    "/dist/heartbeat",
                    {"worker": self.worker_id, "key": key,
                     "attempt": attempt},
                )
            except TransportError:
                # A missed heartbeat is survivable as long as one lands
                # within the TTL; keep trying until the cell finishes.
                continue
            if status == 200 and isinstance(body, dict) and not body.get("ok"):
                fenced.set()
                return

    # -- the loop --------------------------------------------------------

    def step(self) -> str:
        """One iteration: ``"ran"``, ``"idle"``, or ``"unreachable"``."""
        try:
            status, body = self.transport.request(
                "POST", "/dist/lease", {"worker": self.worker_id}
            )
        except TransportError as exc:
            delay = self._idle_backoff.next()
            if _log.ENABLED:
                self.log.warning(
                    "worker_coordinator_unreachable",
                    error=str(exc),
                    retry_in_s=round(delay, 3),
                )
            self.sleep(delay)
            return "unreachable"
        self._idle_backoff.reset()
        lease = body.get("lease") if isinstance(body, dict) else None
        if status != 200 or lease is None:
            self.sleep(self.poll_s)
            return "idle"

        key = lease["key"]
        attempt = int(lease["attempt"])
        ttl_s = float(lease.get("ttl_s", 30.0))
        cell = cell_from_wire(lease["cell"])
        if _log.ENABLED:
            self.log.info("worker_lease", cell=key, attempt=attempt)

        fenced = threading.Event()
        finished = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(key, attempt, max(0.05, ttl_s / 3.0), fenced, finished),
            daemon=True,
        )
        beat.start()
        try:
            try:
                result = self.run_cell(cell)
            except SimulationError as exc:
                self._push_fail(key, attempt, cell, exc)
                self.cells_failed += 1
                return "ran"
            except Exception as exc:  # noqa: BLE001 — survive anything
                self._push_fail(key, attempt, cell, exc)
                self.cells_failed += 1
                return "ran"
        finally:
            finished.set()
            beat.join(timeout=2.0)

        if fenced.is_set():
            # The coordinator re-leased this cell to someone else; a
            # push would be discarded, so do not bother.
            self.cells_abandoned += 1
            if _log.ENABLED:
                self.log.warning("worker_fenced", cell=key, attempt=attempt)
            return "ran"
        self._push_complete(key, attempt, cell, result)
        return "ran"

    def _push(self, path: str, payload: Dict[str, Any]) -> Optional[Dict]:
        """Deliver a push, retrying through backoff; None if lost."""
        backoff = Backoff(seed=sum(payload.get("key", "").encode()) or 1)
        for _ in range(self.push_retries):
            try:
                status, body = self.transport.request("POST", path, payload)
            except TransportError:
                self.sleep(backoff.next())
                continue
            if (
                status == 400
                and isinstance(body, dict)
                and body.get("retry")
            ):
                # The body tore in flight (digest mismatch server-side);
                # we still hold the true bytes — send them again.
                self.sleep(backoff.next())
                continue
            return body if isinstance(body, dict) else {}
        self.pushes_lost += 1
        if _log.ENABLED:
            self.log.error(
                "worker_push_lost", path=path, cell=payload.get("key")
            )
        return None

    def _push_complete(
        self, key: str, attempt: int, cell: Cell, result: SimulationResult
    ) -> None:
        body = self._push(
            "/dist/complete",
            completion_push(
                self.worker_id, key, attempt, cell, result.canonical_json()
            ),
        )
        if body is not None and body.get("accepted"):
            self.cells_done += 1
            if _log.ENABLED:
                self.log.info("worker_complete", cell=key, attempt=attempt)
        else:
            self.cells_abandoned += 1
            if _log.ENABLED:
                self.log.warning(
                    "worker_push_discarded",
                    cell=key,
                    attempt=attempt,
                    reason=(body or {}).get("reason", "lost"),
                )

    def _push_fail(
        self, key: str, attempt: int, cell: Cell, exc: Exception
    ) -> None:
        if isinstance(exc, SimulationError):
            error_type, message, diagnostics, _ = error_payload(
                exc, cell, self.retries
            )
        else:
            error_type, message = type(exc).__name__, str(exc)
            diagnostics = {"cell_key": key}
        if _log.ENABLED:
            self.log.error(
                "worker_cell_error",
                cell=key,
                attempt=attempt,
                error_type=error_type,
            )
        self._push(
            "/dist/fail",
            {
                "worker": self.worker_id,
                "key": key,
                "attempt": attempt,
                "error_type": error_type,
                "error": message,
                "diagnostics": diagnostics,
            },
        )

    def run(
        self,
        max_cells: Optional[int] = None,
        idle_exit_s: Optional[float] = None,
    ) -> int:
        """Pull until stopped; returns the number of cells completed.

        ``max_cells`` bounds work (tests); ``idle_exit_s`` exits after
        that long without running a cell — how the walkthrough's
        workers drain and quit.  An unreachable coordinator does *not*
        reset the drain timer: on a flaky channel (the chaos campaign's
        injected refusals) a worker out of work would otherwise never
        accumulate enough contiguous idle time to exit.
        """
        idle_since: Optional[float] = None
        while not self.stop.is_set():
            if max_cells is not None and (
                self.cells_done + self.cells_failed >= max_cells
            ):
                break
            outcome = self.step()
            if outcome == "ran":
                idle_since = None
            elif idle_exit_s is not None:
                if idle_since is None:
                    idle_since = time.monotonic()
                elif time.monotonic() - idle_since >= idle_exit_s:
                    break
        return self.cells_done


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness worker",
        description="Pull and execute sweep cells from a dist coordinator.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        help="coordinator base URL (a repro.serve daemon with /dist routes)",
    )
    parser.add_argument(
        "--id",
        default=None,
        help="worker id (default: hostname-pid)",
    )
    parser.add_argument("--retries", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--poll", type=float, default=0.5, metavar="S")
    parser.add_argument(
        "--max-cells", type=int, default=None,
        help="exit after this many terminal cells",
    )
    parser.add_argument(
        "--idle-exit", type=float, default=None, metavar="S",
        help="exit after this long with no work (drain mode)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject seeded channel faults, e.g. "
        "'refuse=0.1,tear=0.05,drop_response=0.1'",
    )
    parser.add_argument("--fault-seed", type=int, default=0)
    args = parser.parse_args(argv)

    _log.configure_from_env()
    transport: Any = HttpTransport(args.coordinator)
    if args.faults:
        from repro.dist.faultnet import FaultSpec, FaultyTransport

        transport = FaultyTransport(
            transport, FaultSpec.parse(args.faults), seed=args.fault_seed
        )
    worker = DistWorker(
        transport,
        worker_id=args.id,
        retries=args.retries,
        timeout=args.timeout,
        poll_s=args.poll,
    )
    try:
        done = worker.run(
            max_cells=args.max_cells, idle_exit_s=args.idle_exit
        )
    except KeyboardInterrupt:
        done = worker.cells_done
    print(
        f"worker {worker.worker_id}: {done} done, "
        f"{worker.cells_failed} failed, "
        f"{worker.cells_abandoned} abandoned"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
