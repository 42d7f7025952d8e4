"""Pluggable simulator cores (`SimEngine` implementations).

The shader core's issue loop is a strategy: the **cycle** engine is the
faithful reference loop (the oracle every other engine is differenced
against), the **event** engine replays the identical decision sequence
with event-driven mechanics — skipping dead time via a next-event scan
and coalescing each memory instruction once, memoized by identity — and
is byte-identical to the cycle engine on every simulated quantity.

This module is deliberately import-light: :mod:`repro.core.config`
imports it to validate the ``engine`` field, so pulling in the engine
implementations here (which import gpu/mem/tlb modules) would create an
import cycle.  Engine classes load lazily on first use.

Future cores (e.g. vectorized variants) register here and become
selectable through ``GPUConfig(engine=...)``, ``repro.api``'s
``engine=`` keyword, and ``--engine`` on every harness subcommand
without touching ``api.py``.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple, Type

#: Engine name -> "module:ClassName"; resolved lazily.
_REGISTRY: Dict[str, str] = {
    "cycle": "repro.engines.cycle:CycleEngine",
    "event": "repro.engines.event:EventEngine",
}

#: The engine new configs get when none is requested.
DEFAULT_ENGINE = "event"

#: Canonical observer-capability names an engine may declare in its
#: ``FEATURES`` frozenset (see :class:`repro.engines.base.SimEngine`):
#:
#: - ``"trace"``    — emits :mod:`repro.obs.tracer` events natively
#: - ``"spans"``    — records :mod:`repro.obs.spans` request trees
#: - ``"sampling"`` — drives :class:`repro.obs.interval.IntervalSampler`
#: - ``"profile"``  — attributes time to :mod:`repro.prof` phases
#: - ``"snapshot"`` — state_dict/load_state at safe points
OBSERVER_FEATURES = ("trace", "spans", "sampling", "profile", "snapshot")

_loaded: Dict[str, type] = {}


class EngineFeatureError(RuntimeError):
    """An engine was asked to run with observers it does not support.

    Raised instead of silently substituting another engine (the old
    cycle-loop fallback): the user picked this engine explicitly, so a
    capability gap must surface as an error, not as a quiet behaviour
    change.  CLI entry points report it and exit with status 2.
    """

    def __init__(self, engine: str, missing):
        self.engine = engine
        self.missing = tuple(sorted(missing))
        super().__init__(
            f"engine {engine!r} does not support "
            f"{', '.join(self.missing)}; pick an engine that declares "
            f"these features (see repro.engines.engine_features) or "
            f"disable the observer — runs are never silently moved to "
            f"a different engine"
        )


def available_engines() -> Tuple[str, ...]:
    """Names of every registered engine, in registration order."""
    return tuple(_REGISTRY)


def get_engine(name: str) -> Type:
    """Resolve an engine name to its class.

    Raises ``ValueError`` for unknown names (the same error surface as
    config validation, so CLI and API callers report unknown engines
    uniformly).
    """
    cls = _loaded.get(name)
    if cls is not None:
        return cls
    target = _REGISTRY.get(name)
    if target is None:
        raise ValueError(
            f"unknown engine {name!r}; one of {sorted(_REGISTRY)}"
        )
    module_name, _, class_name = target.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    _loaded[name] = cls
    return cls


def register_engine(name: str, target) -> None:
    """Register an engine (plug-in point).

    ``target`` is either a ``"module:ClassName"`` string (resolved
    lazily, keeping this module import-light) or the engine class
    itself (handy for tests and in-process plug-ins).
    """
    if not name:
        raise ValueError("register_engine needs a name")
    if isinstance(target, type):
        _REGISTRY[name] = f"{target.__module__}:{target.__qualname__}"
        _loaded[name] = target
        return
    if not isinstance(target, str) or ":" not in target:
        raise ValueError(
            "register_engine needs 'module:Class' or an engine class"
        )
    _REGISTRY[name] = target
    _loaded.pop(name, None)


def unregister_engine(name: str) -> None:
    """Remove a registered engine (tests clean up stub engines)."""
    if name in ("cycle", "event"):
        raise ValueError(f"refusing to unregister built-in engine {name!r}")
    _REGISTRY.pop(name, None)
    _loaded.pop(name, None)


def engine_features(name: str) -> frozenset:
    """The observer capabilities engine ``name`` declares."""
    return frozenset(getattr(get_engine(name), "FEATURES", frozenset()))


def require_features(name: str, needed) -> None:
    """Raise :class:`EngineFeatureError` unless engine ``name``
    declares every feature in ``needed``.

    Called by :meth:`repro.core.simulator.Simulator.run` with exactly
    the observers active for the run, so a capability gap fails the run
    up front — never a silent fallback to another engine.
    """
    missing = frozenset(needed) - engine_features(name)
    if missing:
        raise EngineFeatureError(name, missing)


__all__ = [
    "DEFAULT_ENGINE",
    "OBSERVER_FEATURES",
    "EngineFeatureError",
    "available_engines",
    "engine_features",
    "get_engine",
    "register_engine",
    "require_features",
    "unregister_engine",
]
