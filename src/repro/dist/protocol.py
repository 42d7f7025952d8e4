"""The coordinator/worker wire format and its verification primitives.

Everything that crosses the worker↔coordinator channel is JSON built
from three canonical forms the repo already trusts:

- a **cell** travels as its canonical config JSON plus the sweep-point
  fields (:func:`cell_to_wire` / :func:`cell_from_wire`) — the same
  representation :func:`repro.core.config.canonical_config_json`
  journals for jobs, so a cell rebuilt on a worker hashes to the same
  :func:`repro.parallel.cells.key_of` the coordinator leased;
- a **result** travels as the exact ``canonical_json()`` string of the
  :class:`repro.core.results.SimulationResult` — a *string field*, not
  re-encoded JSON, so the bytes the worker hashed are the bytes the
  coordinator verifies and journals (byte-identity survives transport);
- a **digest** (:func:`result_digest`) is the SHA-256 of that string,
  computed worker-side before the push and recomputed coordinator-side
  after — a torn or truncated HTTP body cannot be mistaken for a
  result.

The fencing token is the pair ``(cell_key, attempt)``: the coordinator
only accepts a push whose attempt matches the cell's live lease, which
is what makes duplicated completions, partitioned-then-healed workers,
and SIGKILL-resurrection races all collapse to "discarded and counted".
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.core.config import (
    canonical_config_json,
    config_from_dict,
    config_hash,
)
from repro.parallel.cells import Cell

__all__ = [
    "ProtocolError",
    "cell_from_wire",
    "cell_to_wire",
    "completion_push",
    "result_digest",
    "wire_config_hash",
]


class ProtocolError(ValueError):
    """A malformed or inconsistent wire payload (an HTTP 400)."""


def cell_to_wire(cell: Cell) -> Dict[str, Any]:
    """The JSON form of one sweep cell, canonical-config embedded."""
    return {
        "label": cell.label,
        "workload": cell.workload,
        "config": json.loads(canonical_config_json(cell.config)),
        "form": cell.form,
        "miss_scale": cell.miss_scale,
    }


def cell_from_wire(data: Any) -> Cell:
    """Rebuild a :class:`Cell` from its wire form (validating it)."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"cell payload must be an object, got {type(data).__name__}"
        )
    missing = {"label", "workload", "config"} - set(data)
    if missing:
        raise ProtocolError(f"cell payload missing keys {sorted(missing)}")
    config = data["config"]
    if not isinstance(config, dict):
        raise ProtocolError("cell 'config' must be a canonical config object")
    try:
        built = config_from_dict(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad cell config: {exc}") from exc
    miss_scale = data.get("miss_scale", 1.0)
    if not isinstance(miss_scale, (int, float)) or miss_scale <= 0:
        raise ProtocolError("cell 'miss_scale' must be a positive number")
    form = data.get("form")
    if form not in (None, "linear", "blocks"):
        raise ProtocolError("cell 'form' must be null, 'linear', or 'blocks'")
    return Cell(
        label=str(data["label"]),
        workload=str(data["workload"]),
        config=built,
        form=form,
        miss_scale=float(miss_scale),
    )


def wire_config_hash(data: Dict[str, Any]) -> str:
    """The canonical config hash of a wire cell (coordinator-side check)."""
    return config_hash(config_from_dict(data["config"]))


def result_digest(result_json: str) -> str:
    """SHA-256 over the exact canonical result string a worker pushes."""
    return "sha256:" + hashlib.sha256(
        result_json.encode("utf-8")
    ).hexdigest()


def completion_push(
    worker: str, key: str, attempt: int, cell: Cell, result_json: str
) -> Dict[str, Any]:
    """The ``POST /dist/complete`` body for ``result_json``: the fencing
    token ``(key, attempt)`` plus the config hash and digest the
    coordinator verifies before accepting the result."""
    return {
        "worker": worker,
        "key": key,
        "attempt": attempt,
        "config_hash": config_hash(cell.config),
        "digest": result_digest(result_json),
        "result": result_json,
    }
