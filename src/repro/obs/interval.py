"""Interval metrics: periodic snapshots of per-core counter deltas.

The simulator's clock fast-forwards over idle spans, so the sampler is
driven from the core's issue loop: every time the clock crosses an
``interval_cycles`` boundary it appends a row of *deltas* (instructions
issued, TLB misses taken, stall cycles accumulated...) since the
previous row.  When one clock jump crosses several boundaries, the
whole delta lands on the first crossed boundary and the remaining rows
read zero — the series stays aligned to the boundary grid either way.

Rows are plain dicts so they serialize into
:attr:`repro.core.results.SimulationResult.interval_series` untouched.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs import tracer as _trace
from repro.obs.events import INTERVAL_SAMPLE

#: CoreStats counters sampled by default (each row stores its delta).
DEFAULT_FIELDS: Tuple[str, ...] = (
    "instructions",
    "memory_instructions",
    "tlb_lookups",
    "tlb_hits",
    "tlb_misses",
    "tlb_miss_stall_cycles",
    "walks",
    "idle_cycles",
)


class IntervalSampler:
    """Snapshots counter deltas every ``interval_cycles`` cycles.

    Parameters
    ----------
    interval_cycles:
        Sampling period (must be positive).
    core_id:
        Stamped into every row (and onto the emitted counter events).
    fields:
        CoreStats attribute names to sample.
    """

    def __init__(
        self,
        interval_cycles: int,
        core_id: int = 0,
        fields: Tuple[str, ...] = DEFAULT_FIELDS,
    ):
        if interval_cycles <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval_cycles
        self.core_id = core_id
        self.fields = tuple(fields)
        self.rows: List[Dict[str, int]] = []
        self._next = interval_cycles
        self._last = {name: 0 for name in self.fields}

    def _sample(self, cycle: int, stats) -> None:
        row: Dict[str, int] = {"core": self.core_id, "cycle": cycle}
        for name in self.fields:
            current = getattr(stats, name)
            row[name] = current - self._last[name]
            self._last[name] = current
        self.rows.append(row)
        if _trace.ENABLED:
            _trace.emit(
                INTERVAL_SAMPLE,
                cycle=cycle,
                core=self.core_id,
                track="interval",
                **{name: row[name] for name in self.fields},
            )

    def maybe_sample(self, now: int, stats) -> None:
        """Emit a row for every interval boundary at or before ``now``."""
        while now >= self._next:
            self._sample(self._next, stats)
            self._next += self.interval

    def finalize(self, now: int, stats) -> None:
        """Flush the partial tail interval (if anything accrued)."""
        self.maybe_sample(now, stats)
        if any(getattr(stats, name) != self._last[name] for name in self.fields):
            self._sample(now, stats)

    def on_counter_reset(self) -> None:
        """The core restarted its counters (end of warmup): realign the
        baselines so the next row's deltas stay non-negative."""
        self._last = {name: 0 for name in self.fields}
