"""The sweep coordinator: shard, lease, verify, reassemble.

The coordinator is a journaled state machine over sweep cells, HTTP
left to its host (the ``repro.serve`` daemon splices ``/dist/*`` into
its handler; in-process tests call :meth:`DistCoordinator.handle`
directly).  The lifecycle of one cell:

1. **shard** — :meth:`submit_cells` keys the cell by its canonical
   config-hash identity (:func:`repro.parallel.cells.key_of`) and
   journals its wire form; duplicate submissions collapse.
2. **lease** — a worker's poll grants ``(cell_key, attempt)``, attempt
   incremented per grant, from the ready queue of the
   :class:`repro.serve.leases.LeaseLedger` the job dispatcher uses too
   (first in, first out; a re-queued cell waits behind every cell not
   yet leased).
3. **heartbeat** — renews the lease while the worker executes; a
   fenced heartbeat tells the worker to abandon the cell.
4. **complete/fail** — the push runs a verification pipeline before
   anything is journaled: known key → result digest (recomputed over
   the exact pushed string) → config hash → fencing token.  Stale and
   duplicate pushes are discarded and counted
   (``dist_stale_results_total``), corrupt ones rejected and counted
   (``dist_rejected_results_total``); only a verified push folds into
   the shared :class:`repro.parallel.cache.ResultCache` and reaches
   the journal.
5. **expiry** — :meth:`maintain` (called from the daemon's monitor
   tick) re-queues cells whose leases lapsed, under the shared
   decorrelated-jitter backoff and the cell's bounded attempt budget;
   a cell that exhausts the budget fails *structurally* (typed error,
   attempts attached) without sinking the sweep.  A worker-reported
   failure is retried the same way.

Every transition is journaled by the ledger before it takes effect,
so a coordinator killed anywhere resumes on restart: cells that were
mid-lease re-queue first, and a late push from their old workers is
fenced off.  This class keeps what is the coordinator's own: the
``/dist/*`` routes, push verification, worker liveness, the cell
metrics and log events, and reassembly.

Reassembly (:meth:`assemble`) returns results in submission order,
parsed from the exact strings workers pushed — byte-identical to a
serial run because cells are pure functions of their configs.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.results import SimulationResult
from repro.dist.journal import CellJournal, CellState
from repro.dist.protocol import (
    ProtocolError,
    cell_from_wire,
    cell_to_wire,
    result_digest,
    wire_config_hash,
)
from repro.obs import log as _log
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell, key_of, rebuild_error
from repro.prof.registry import MetricsRegistry, REGISTRY
from repro.serve.leases import STATE_FAILED, Lease, LeaseLedger

__all__ = ["DistCoordinator"]

#: Push dispositions :meth:`DistCoordinator.complete` can return.
ACCEPTED = "accepted"


class DistCoordinator:
    """Shards a sweep into leased cells and reassembles verified results.

    Parameters
    ----------
    journal_path:
        The cell journal (WAL) file; replayed on construction, so a
        restarted coordinator resumes exactly where it died.
    cache:
        Shared result cache verified pushes fold into (optional).
    lease_ttl:
        Seconds a worker owns a cell between heartbeats before the
        coordinator presumes it dead and re-queues.  A worker counts
        as live for twice this long after its last contact.
    max_attempts:
        Lease grants per cell before it fails structurally.
    clock:
        Injectable monotonic clock (chaos tests advance a fake one).
    """

    def __init__(
        self,
        journal_path: str,
        cache: Optional[ResultCache] = None,
        registry: Optional[MetricsRegistry] = None,
        lease_ttl: float = 30.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
        backoff_seed: int = 0,
        journal_max_bytes: Optional[int] = None,
    ):
        self.lock = threading.RLock()
        self.cache = cache
        self.registry = registry if registry is not None else REGISTRY
        self.worker_ttl = 2 * lease_ttl
        self.clock = clock
        #: Every cell transition; its entries are in submission order,
        #: which assemble() without explicit keys uses.
        self.ledger = LeaseLedger(
            CellJournal(journal_path, max_bytes=journal_max_bytes),
            clock=clock,
            ttl=lease_ttl,
            max_attempts=max_attempts,
            backoff_seed=backoff_seed,
        )
        self._cells: Dict[str, CellState] = self.ledger.entries
        self.log = _log.get_logger("dist.coordinator")
        #: worker id → monotonic last-contact instant.
        self._workers: Dict[str, float] = {}
        # Cells mid-lease when the previous coordinator died: their
        # leases died with it, so they re-queue (fencing discards any
        # late push from their original workers).
        for key in self.ledger.recover("coordinator-restart"):
            if _log.ENABLED:
                self.log.warning(
                    "dist_cell_interrupted",
                    cell=key,
                    attempt=self._cells[key].attempts,
                )

    # -- metric shorthands ---------------------------------------------

    def _count(self, name: str, help: str, **labels: str) -> None:
        self.registry.counter(name, help=help).inc(1, **labels)

    def _stale(self, reason: str, key: str, attempt: int) -> Dict[str, Any]:
        self._count(
            "dist_stale_results_total",
            "pushes discarded by lease fencing",
            reason=reason,
        )
        if _log.ENABLED:
            self.log.warning(
                "dist_stale_result", cell=key, attempt=attempt, reason=reason
            )
        return {"accepted": False, "reason": reason, "retry": False}

    def _rejected(
        self, reason: str, key: str, retry: bool
    ) -> Dict[str, Any]:
        self._count(
            "dist_rejected_results_total",
            "pushes that failed verification",
            reason=reason,
        )
        if _log.ENABLED:
            self.log.warning("dist_rejected_result", cell=key, reason=reason)
        return {"accepted": False, "reason": reason, "retry": retry}

    def _update_cell_gauges(self) -> None:
        gauge = self.registry.gauge(
            "dist_cells", "sharded cells by state"
        )
        for state, count in self.ledger.counts().items():
            gauge.set(count, state=state)

    # -- sharding ------------------------------------------------------

    def submit_cells(self, cells: Sequence[Cell]) -> List[str]:
        """Shard ``cells`` into the pool; returns their keys in order.

        Content-derived keys make submission idempotent: a driver
        re-submitting the same sweep after a coordinator restart (or a
        retried POST) maps onto the existing cells, results intact.
        """
        keys: List[str] = []
        with self.lock:
            for cell in cells:
                key = key_of(cell)
                keys.append(key)
                if key in self._cells:
                    continue
                self.ledger.add(CellState(key=key, wire=cell_to_wire(cell)))
                if _log.ENABLED:
                    self.log.info("dist_shard", cell=key)
            self._update_cell_gauges()
        return keys

    # -- worker-facing API ---------------------------------------------

    def _touch_worker(self, worker: str) -> None:
        if worker not in self._workers and _log.ENABLED:
            self.log.info("dist_worker_seen", worker=worker)
        self._workers[worker] = self.clock()

    def lease(self, worker: str) -> Optional[Dict[str, Any]]:
        """Grant the next runnable cell to ``worker`` (None = idle)."""
        with self.lock:
            self._touch_worker(worker)
            self._expire()
            granted = self.ledger.grant(owner=worker)
            if granted is None:
                return None
            cell, grant = granted
            self._count("dist_leases_granted_total", "cell leases granted")
            self._update_cell_gauges()
            if _log.ENABLED:
                self.log.info(
                    "dist_lease",
                    cell=cell.key,
                    attempt=grant.attempt,
                    worker=worker,
                )
            return {
                "key": cell.key,
                "attempt": grant.attempt,
                "cell": cell.wire,
                "ttl_s": self.ledger.leases.ttl,
                "expires_at": grant.expires_at,
            }

    def heartbeat(self, worker: str, key: str, attempt: int) -> bool:
        """Renew ``worker``'s lease; False means it was fenced off."""
        with self.lock:
            self._touch_worker(worker)
            self._count("dist_heartbeats_total", "worker heartbeats")
            cell = self._cells.get(key)
            if cell is None or cell.terminal:
                return False
            if self.ledger.renew(key, attempt):
                return True
            if _log.ENABLED:
                self.log.warning(
                    "dist_heartbeat_fenced",
                    cell=key,
                    attempt=attempt,
                    worker=worker,
                )
            return False

    def complete(
        self,
        worker: str,
        key: str,
        attempt: int,
        result_json: Any,
        digest: Any,
        config_hash_claim: Any = None,
    ) -> Dict[str, Any]:
        """Verify and fold one pushed result.

        Returns ``{"accepted": bool, "reason": ..., "retry": bool}``;
        ``retry`` True marks transport-level corruption (torn body) the
        worker should re-push, False marks a push that must be
        abandoned (fenced, duplicate, or semantically wrong).  Raises
        :class:`ProtocolError` for payloads malformed beyond reasoning.
        """
        if not isinstance(result_json, str) or not isinstance(digest, str):
            raise ProtocolError(
                "complete push needs string 'result' and 'digest' fields"
            )
        with self.lock:
            self._touch_worker(worker)
            cell = self._cells.get(key)
            if cell is None:
                return self._rejected("unknown", key, retry=False)
            # Digest first: a mismatch means the body tore in flight —
            # nothing else in the payload can be trusted, and the
            # worker still holds the true bytes, so ask for a re-push.
            if result_digest(result_json) != digest:
                return self._rejected("digest", key, retry=True)
            if config_hash_claim is not None:
                if wire_config_hash(cell.wire) != config_hash_claim:
                    return self._rejected("config_hash", key, retry=False)
            # Fencing: exactly one push per cell ever passes this gate.
            if cell.terminal:
                return self._stale("duplicate", key, attempt)
            live = self.ledger.holder(key, attempt)
            if live is None:
                return self._stale("fenced", key, attempt)
            try:
                result = SimulationResult.from_json(result_json)
            except (ValueError, KeyError, TypeError):
                return self._rejected("malformed", key, retry=True)
            self.ledger.commit(live, result_json, digest=digest, worker=worker)
            if self.cache is not None:
                self.cache.put(cache_key(cell_from_wire(cell.wire)), result)
            self._count("dist_results_total", "verified cell results")
            self._update_cell_gauges()
            if _log.ENABLED:
                self.log.info(
                    "dist_complete", cell=key, attempt=attempt, worker=worker
                )
            return {"accepted": True, "reason": ACCEPTED, "retry": False}

    def fail(
        self,
        worker: str,
        key: str,
        attempt: int,
        error_type: str,
        message: str,
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Fold one structured worker-side failure (fenced like a push);
        the cell is retried until its attempt budget is spent."""
        with self.lock:
            self._touch_worker(worker)
            cell = self._cells.get(key)
            if cell is None:
                return self._rejected("unknown", key, retry=False)
            if cell.terminal:
                return self._stale("duplicate", key, attempt)
            live = self.ledger.holder(key, attempt)
            if live is None:
                return self._stale("fenced", key, attempt)
            self._retry_or_fail(
                live,
                "worker-error",
                str(error_type),
                str(message),
                diagnostics or {},
            )
            self._update_cell_gauges()
            return {"accepted": True, "reason": "recorded", "retry": False}

    # -- expiry / maintenance ------------------------------------------

    def _retry_or_fail(
        self,
        lease: Lease,
        reason: str,
        error_type: str,
        message: str,
        diagnostics: Dict[str, Any],
    ) -> None:
        """Budgeted retry: re-queue under backoff or fail structurally."""
        cell = self._cells[lease.job_id]
        diagnostics = dict(diagnostics)
        diagnostics.setdefault("cell_key", cell.key)
        diagnostics["attempts"] = cell.attempts
        delay = self.ledger.retry_or_fail(
            lease, reason, error_type, message, diagnostics
        )
        if delay is None:
            self._count(
                "dist_cells_failed_total",
                "cells that exhausted their attempt budget",
            )
            if _log.ENABLED:
                self.log.error(
                    "dist_cell_failed",
                    cell=cell.key,
                    error_type=error_type,
                    attempts=cell.attempts,
                )
        elif _log.ENABLED:
            self.log.warning(
                "dist_requeue",
                cell=cell.key,
                attempt=cell.attempts,
                reason=reason,
                delay_s=round(delay, 3),
            )

    def _expire(self) -> None:
        """Re-queue cells whose leases lapsed (caller holds the lock)."""
        for lease in self.ledger.expire():
            self._count(
                "dist_lease_expirations_total",
                "leases that lapsed without a push",
            )
            if _log.ENABLED:
                self.log.warning(
                    "dist_lease_expired",
                    cell=lease.job_id,
                    attempt=lease.attempt,
                    worker=lease.owner or "-",
                )
            self._retry_or_fail(
                lease,
                "lease-expired",
                "CellTimeout",
                f"lease expired {lease.attempt} times "
                f"(workers died or wedged)",
                {},
            )
        self.registry.gauge(
            "dist_workers_live", "workers seen within worker_ttl"
        ).set(self.live_workers())

    def maintain(self) -> None:
        """Periodic upkeep (the serve daemon calls this from its tick)."""
        with self.lock:
            self._expire()
            self._update_cell_gauges()

    # -- driver-facing API ---------------------------------------------

    def live_workers(self) -> int:
        with self.lock:
            now = self.clock()
            return sum(
                1
                for seen in self._workers.values()
                if now - seen <= self.worker_ttl
            )

    def counts(self) -> Dict[str, int]:
        with self.lock:
            return self.ledger.counts()

    def all_terminal(self) -> bool:
        with self.lock:
            return bool(self._cells) and all(
                cell.terminal for cell in self._cells.values()
            )

    def status(self) -> Dict[str, Any]:
        """The ``GET /dist/status`` body (fleet + cell summary)."""
        with self.lock:
            self._expire()
            now = self.clock()
            workers = {
                worker: {
                    "age_s": round(now - seen, 3),
                    "live": now - seen <= self.worker_ttl,
                }
                for worker, seen in sorted(self._workers.items())
            }
            return {
                "cells": self.counts(),
                "workers": workers,
                "workers_live": sum(
                    1 for w in workers.values() if w["live"]
                ),
                "leases": [
                    {
                        "key": lease.job_id,
                        "attempt": lease.attempt,
                        "owner": lease.owner,
                        "expires_in_s": round(lease.expires_at - now, 3),
                    }
                    for lease in self.ledger.leases.live_leases()
                ],
                "lease_ttl_s": self.ledger.leases.ttl,
                "max_attempts": self.ledger.max_attempts,
            }

    def cell_states(self) -> List[Dict[str, Any]]:
        with self.lock:
            return [
                cell.public_dict() for cell in self._cells.values()
            ]

    def result_strings(
        self, keys: Optional[Sequence[str]] = None
    ) -> List[Optional[str]]:
        """The exact canonical result strings, in submission order.

        Byte-identity assertions compare these against
        ``SimulationResult.canonical_json()`` of a serial run.
        """
        with self.lock:
            chosen = list(keys) if keys is not None else list(self._cells)
            return [
                self._cells[key].result if key in self._cells else None
                for key in chosen
            ]

    def assemble(
        self, keys: Optional[Sequence[str]] = None
    ) -> List[SimulationResult]:
        """Reassemble the sweep in submission order.

        Every cell must be terminal; the earliest failed cell (in the
        requested order) raises its reconstructed structured error —
        the same earliest-failure semantics the in-process pool uses.
        """
        with self.lock:
            chosen = list(keys) if keys is not None else list(self._cells)
            for key in chosen:
                cell = self._cells.get(key)
                if cell is None:
                    raise KeyError(f"unknown cell {key!r}")
                if not cell.terminal:
                    raise RuntimeError(
                        f"cell {key!r} is still {cell.state!r}; "
                        "assemble() needs every cell terminal"
                    )
            for key in chosen:
                cell = self._cells[key]
                if cell.state == STATE_FAILED:
                    error = cell.error or {}
                    diagnostics = dict(error.get("diagnostics") or {})
                    diagnostics.setdefault("cell_key", key)
                    diagnostics.setdefault(
                        "attempts", error.get("attempts", cell.attempts)
                    )
                    raise rebuild_error(
                        error.get("type", "SimulationError"),
                        error.get("message", "distributed cell failed"),
                        diagnostics,
                    )
            return [
                SimulationResult.from_json(self._cells[key].result)
                for key in chosen
            ]

    # -- HTTP splice ----------------------------------------------------

    def handle(
        self, method: str, path: str, body: Any
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one ``/dist/*`` request; returns ``(status, body)``.

        The serve daemon's handler delegates here; the in-process
        ``LocalTransport`` calls it directly.  Worker-identifying
        fields are required on every POST.
        """
        if method == "GET" and path == "/dist/status":
            return 200, self.status()
        if method == "GET" and path == "/dist/cells":
            return 200, {"cells": self.cell_states()}
        if method != "POST":
            return 404, {"error": f"no such dist route {path!r}"}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}

        def _str(field: str) -> str:
            value = body.get(field)
            if not isinstance(value, str) or not value:
                raise ProtocolError(
                    f"field {field!r} must be a non-empty string"
                )
            return value

        def _int(field: str) -> int:
            value = body.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"field {field!r} must be an integer")
            return value

        try:
            if path == "/dist/shard":
                wires = body.get("cells")
                if not isinstance(wires, list) or not wires:
                    raise ProtocolError(
                        "'cells' must be a non-empty list of wire cells"
                    )
                cells = [cell_from_wire(wire) for wire in wires]
                return 200, {"keys": self.submit_cells(cells)}
            if path == "/dist/assemble":
                keys = body.get("keys")
                if keys is not None and not isinstance(keys, list):
                    raise ProtocolError("'keys' must be a list of cell keys")
                with self.lock:
                    chosen = (
                        [str(k) for k in keys]
                        if keys is not None
                        else list(self._cells)
                    )
                    rows = []
                    for key in chosen:
                        cell = self._cells.get(key)
                        if cell is None:
                            raise ProtocolError(f"unknown cell {key!r}")
                        rows.append(
                            {
                                "key": key,
                                "state": cell.state,
                                "result": cell.result,
                                "error": cell.error,
                            }
                        )
                    return 200, {
                        "complete": all(
                            row["state"] in ("done", "failed")
                            for row in rows
                        ),
                        "cells": rows,
                    }
            if path == "/dist/lease":
                grant = self.lease(_str("worker"))
                return 200, {"lease": grant}
            if path == "/dist/heartbeat":
                ok = self.heartbeat(
                    _str("worker"), _str("key"), _int("attempt")
                )
                return 200, {"ok": ok}
            if path == "/dist/complete":
                outcome = self.complete(
                    _str("worker"),
                    _str("key"),
                    _int("attempt"),
                    body.get("result"),
                    body.get("digest"),
                    body.get("config_hash"),
                )
                status = 400 if outcome.get("retry") else 200
                return status, outcome
            if path == "/dist/fail":
                diagnostics = body.get("diagnostics")
                outcome = self.fail(
                    _str("worker"),
                    _str("key"),
                    _int("attempt"),
                    _str("error_type"),
                    str(body.get("error", "")),
                    diagnostics if isinstance(diagnostics, dict) else None,
                )
                return 200, outcome
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        return 404, {"error": f"no such dist route {path!r}"}

    def close(self) -> None:
        self.ledger.journal.close()
