"""The serve job model: request schema, content-derived ids, states.

A job is one ``POST /jobs`` request — a ``simulate``, ``sweep``, or
``figure`` call expressed as JSON against the same keyword-only schema
:mod:`repro.api` exposes in Python::

    {"kind": "simulate",
     "params": {"config": "augmented", "workload": "bfs"}}

    {"kind": "simulate",
     "params": {"config": {"preset": "naive",
                           "overrides": {"num_cores": 1}},
                "workload": "kmeans", "miss_scale": 1.0}}

    {"kind": "figure", "params": {"name": "fig02",
                                  "workloads": ["bfs", "kmeans"]}}

    {"kind": "sweep", "params": {"configs": {"base": "no_tlb",
                                             "aug": "augmented"},
                                 "workloads": ["bfs"]}}

    {"kind": "figure", "params": {"name": "fig02"},
     "engine": "cycle"}

An optional top-level ``"engine"`` runs every machine the job names on
that simulator core (see :func:`repro.engines.available_engines`); a
config spec that sets ``engine`` in its own ``overrides`` wins.  For
``simulate``/``sweep`` the engine folds into each canonical config (two
spellings of the same machines stay the same job); for ``figure`` it is
recorded in the normalized params, since figure configs live server-side.

Validation happens at admission (:func:`normalize_request`): unknown
presets, workloads, figure ids, or config overrides are a ``400``
before anything is journaled.  The normalized request embeds the
*canonical config JSON* of every machine it names, and the job id is a
SHA-256 prefix of that normalized form — so two requests that mean the
same simulation are the **same job**, no matter how they spelled it.
That is the dedup contract: a million clients submitting fig02 share
one job id, one journal entry, and one run (whose cells additionally
short-circuit through the content-addressed result cache).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import GPUConfig, canonical_config_json
from repro.core.presets import preset_names
from repro.serve.leases import STATE_QUEUED, TERMINAL_STATES
from repro.workloads.base import TIMING_MISS_SCALE
from repro.workloads.registry import workload_names

__all__ = [
    "Job",
    "RequestError",
    "job_id_for",
    "normalize_request",
]

KINDS = ("simulate", "sweep", "figure")


class RequestError(ValueError):
    """A malformed or unknown-name job request (an HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _build_config(
    spec: Any, where: str, engine: Optional[str] = None
) -> GPUConfig:
    """Build the GPUConfig a JSON config spec names (validating it)."""
    if isinstance(spec, str):
        name, overrides = spec, {}
    elif isinstance(spec, dict):
        extra = set(spec) - {"preset", "overrides"}
        _require(
            not extra,
            f"{where}: unknown config keys {sorted(extra)}; "
            "expected {'preset', 'overrides'}",
        )
        name = spec.get("preset")
        overrides = spec.get("overrides") or {}
        _require(
            isinstance(name, str),
            f"{where}: config 'preset' must be a preset name string",
        )
        _require(
            isinstance(overrides, dict),
            f"{where}: config 'overrides' must be an object",
        )
    else:
        raise RequestError(
            f"{where}: config must be a preset name or "
            "{'preset': ..., 'overrides': {...}}; got "
            f"{type(spec).__name__}"
        )
    for key, value in overrides.items():
        _require(
            isinstance(value, (int, float, str, bool)),
            f"{where}: override {key!r} must be a scalar "
            "(nested config sections are not addressable over JSON)",
        )
    try:
        config = GPUConfig.preset(name, **overrides)
    except ValueError as exc:  # unknown preset name
        raise RequestError(f"{where}: {exc}") from exc
    except TypeError as exc:  # unknown override field
        raise RequestError(
            f"{where}: bad config override for preset {name!r}: {exc}"
        ) from exc
    if engine is not None and "engine" not in overrides:
        config = dataclasses.replace(config, engine=engine)
    return config


def _check_workloads(names: Any, where: str) -> List[str]:
    _require(
        isinstance(names, (list, tuple)) and names,
        f"{where}: 'workloads' must be a non-empty list of names",
    )
    known = set(workload_names())
    bad = [name for name in names if name not in known]
    _require(
        not bad,
        f"{where}: unknown workload(s) {bad}; choose from {sorted(known)}",
    )
    return list(names)


def _check_form(form: Any, where: str) -> Optional[str]:
    _require(
        form in (None, "linear", "blocks"),
        f"{where}: form must be null, 'linear', or 'blocks'",
    )
    return form


def _check_miss_scale(value: Any, where: str) -> float:
    _require(
        isinstance(value, (int, float)) and value > 0,
        f"{where}: miss_scale must be a positive number",
    )
    return float(value)


def normalize_request(body: Any) -> Dict[str, Any]:
    """Validate a job request and return its canonical form.

    The canonical form is what gets hashed into the job id and stored
    in the journal: config specs are replaced by their canonical config
    JSON (so spelling differences — aliases, default overrides —
    collapse), optional fields get their defaults, and key order is
    irrelevant.  Raises :class:`RequestError` on anything invalid.
    """
    _require(isinstance(body, dict), "request body must be a JSON object")
    kind = body.get("kind")
    _require(kind in KINDS, f"'kind' must be one of {list(KINDS)}")
    params = body.get("params")
    _require(isinstance(params, dict), "'params' must be a JSON object")
    extra = set(body) - {"kind", "params", "deadline_s", "engine"}
    _require(not extra, f"unknown request keys {sorted(extra)}")
    engine = body.get("engine")
    if engine is not None:
        from repro.engines import available_engines

        _require(
            isinstance(engine, str) and engine in available_engines(),
            f"'engine' must be one of {sorted(available_engines())}; "
            f"got {engine!r}",
        )
    deadline = body.get("deadline_s")
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float)) and deadline > 0,
            "'deadline_s' must be a positive number",
        )

    where = f"{kind} params"
    normalized: Dict[str, Any]
    if kind == "simulate":
        allowed = {"config", "workload", "form", "miss_scale"}
        extra = set(params) - allowed
        _require(not extra, f"{where}: unknown keys {sorted(extra)}")
        _require("config" in params, f"{where}: 'config' is required")
        workload = params.get("workload")
        known = set(workload_names())
        _require(
            workload in known,
            f"{where}: unknown workload {workload!r}; choose from "
            f"{sorted(known)}",
        )
        config = _build_config(params["config"], where, engine=engine)
        normalized = {
            "config": json.loads(canonical_config_json(config)),
            "workload": workload,
            "form": _check_form(params.get("form"), where),
            "miss_scale": _check_miss_scale(
                params.get("miss_scale", TIMING_MISS_SCALE), where
            ),
        }
    elif kind == "sweep":
        allowed = {"configs", "workloads", "form", "miss_scale", "baseline"}
        extra = set(params) - allowed
        _require(not extra, f"{where}: unknown keys {sorted(extra)}")
        configs = params.get("configs")
        _require(
            isinstance(configs, dict) and configs,
            f"{where}: 'configs' must be a non-empty "
            "{label: config} object",
        )
        baseline = params.get("baseline")
        _require(
            baseline is None or baseline in configs,
            f"{where}: baseline {baseline!r} is not a config label",
        )
        normalized = {
            # Sorted label order: the journal stores events with sorted
            # keys, so replayed params come back sorted — sorting here
            # makes row order identical for a fresh and a replayed job.
            "configs": {
                label: json.loads(
                    canonical_config_json(
                        _build_config(
                            configs[label], f"{where}[{label!r}]", engine=engine
                        )
                    )
                )
                for label in sorted(configs)
            },
            "workloads": (
                _check_workloads(params["workloads"], where)
                if params.get("workloads") is not None
                else None
            ),
            "form": _check_form(params.get("form"), where),
            "miss_scale": _check_miss_scale(
                params.get("miss_scale", TIMING_MISS_SCALE), where
            ),
            "baseline": baseline,
        }
    else:  # figure
        from repro.harness.figures import ALL_FIGURES

        allowed = {"name", "workloads"}
        extra = set(params) - allowed
        _require(not extra, f"{where}: unknown keys {sorted(extra)}")
        name = params.get("name")
        _require(
            name in ALL_FIGURES,
            f"{where}: unknown figure {name!r}; choose from "
            f"{sorted(ALL_FIGURES)}",
        )
        normalized = {
            "name": name,
            "workloads": (
                _check_workloads(params["workloads"], where)
                if params.get("workloads") is not None
                else None
            ),
        }
        if engine is not None:
            normalized["engine"] = engine
    request = {"kind": kind, "params": normalized}
    if deadline is not None:
        request["deadline_s"] = float(deadline)
    return request


def job_id_for(normalized: Dict[str, Any]) -> str:
    """The content-derived job id of a normalized request."""
    payload = json.dumps(normalized, sort_keys=True).encode("utf-8")
    return "j" + hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class Job:
    """One submitted request and everything the server knows about it."""

    id: str
    kind: str
    params: Dict[str, Any]
    state: str = STATE_QUEUED
    attempts: int = 0
    max_attempts: int = 3
    deadline_s: Optional[float] = None
    submitted_unix: float = field(default_factory=time.time)
    #: Monotonic timestamp before which the dispatcher must not lease
    #: this job (lease re-queue backoff).  Never persisted: a restarted
    #: server re-dispatches immediately.
    not_before: float = 0.0
    result: Optional[Any] = None
    error: Optional[Dict[str, Any]] = None

    @classmethod
    def from_request(
        cls, normalized: Dict[str, Any], max_attempts: int = 3
    ) -> "Job":
        """Build a queued job from a :func:`normalize_request` payload."""
        return cls(
            id=job_id_for(normalized),
            kind=normalized["kind"],
            params=normalized["params"],
            max_attempts=max_attempts,
            deadline_s=normalized.get("deadline_s"),
        )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def public_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """The JSON the HTTP API serves for this job."""
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "submitted_unix": self.submitted_unix,
        }
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.result is not None:
            out["result"] = self.result
        return out

    def journal_dict(self) -> Dict[str, Any]:
        """The submit-event payload (durable fields only)."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "max_attempts": self.max_attempts,
            "submitted_unix": self.submitted_unix,
        }
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        return out

    @classmethod
    def from_journal_dict(cls, data: Dict[str, Any]) -> "Job":
        """Inverse of :meth:`journal_dict` (replay path)."""
        return cls(
            id=data["id"],
            kind=data["kind"],
            params=data["params"],
            max_attempts=int(data.get("max_attempts", 3)),
            deadline_s=data.get("deadline_s"),
            submitted_unix=float(data.get("submitted_unix", 0.0)),
        )

    def copy(self) -> "Job":
        """A detached snapshot (HTTP handlers read outside the lock)."""
        return dataclasses.replace(self)
