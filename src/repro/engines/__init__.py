"""The two simulator cores (`SimEngine` implementations).

The shader core's issue loop is a strategy: the **cycle** engine is the
faithful reference loop (the oracle the event engine is differenced
against), the **event** engine replays the identical decision sequence
with event-driven mechanics — skipping dead time via a next-event scan,
keeping ready warps in sorted lists, and coalescing each distinct
lane-address tuple once, memoized by content — and
is byte-identical to the cycle engine on every simulated quantity.
Both run every observer natively (tracing, spans, interval sampling,
profiling); ``tests/engines`` pins that they agree under each one.

The engine is picked by name through ``GPUConfig(engine=...)``,
``repro.api``'s ``engine=`` keyword and ``--engine`` on every harness
subcommand.

This module is deliberately import-light: :mod:`repro.core.config`
imports it to validate the ``engine`` field, so pulling in the engine
implementations here (which import gpu/mem/tlb modules) would create an
import cycle.  Engine classes load lazily on first use.
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

_loaded: Dict[str, type] = {}


def available_engines() -> Tuple[str, ...]:
    """Names of every engine: ``("cycle", "event")``."""
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


__all__ = ["DEFAULT_ENGINE", "available_engines", "get_engine"]
