"""Live sweep progress: cells done/total, cache hits, workers, ETA.

Three channels, all optional and all observation-only:

- a rate-limited single-line report to a text stream (the CLI passes
  ``sys.stderr`` for parallel runs),
- :mod:`repro.obs` trace events when a tracer is installed —
  ``sweep_cell`` instants per completed cell and a ``sweep_progress``
  counter series (done / simulated / cache hits / in-flight workers)
  that renders as Perfetto counter tracks alongside the simulator's own
  timeline, and
- the unified :class:`repro.prof.registry.MetricsRegistry` — the
  ``sweep_cells_total`` counter (labeled by source), the
  ``sweep_in_flight`` gauge, and the ``sweep_cell_seconds`` histogram,
  which the bench harness snapshots into ``BENCH_<n>.json`` and the
  Prometheus exporter exposes.
"""

from __future__ import annotations

import time
from typing import Optional, TextIO

from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.prof import registry as _registry

#: Where a completed cell's result came from.  A result the executor
#: already resolved earlier counts as ``cache``, like a cache entry.
SOURCE_SIMULATED = "simulated"
SOURCE_CACHE = "cache"
SOURCE_FAILED = "failed"


class SweepProgress:
    """Accumulates cell completions and reports them."""

    def __init__(
        self,
        total: int,
        jobs: int = 1,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.5,
        registry: Optional["_registry.MetricsRegistry"] = None,
    ):
        self.total = total
        self.jobs = max(1, jobs)
        self.stream = stream
        self.min_interval_s = min_interval_s
        self.registry = registry if registry is not None else _registry.REGISTRY
        self.done = 0
        self.simulated = 0
        self.cache_hits = 0
        self.failed = 0
        self.in_flight = 0
        self._started = time.monotonic()
        self._last_report = 0.0
        self._busy_s = 0.0

    # -- bookkeeping ---------------------------------------------------

    def launched(self, count: int = 1) -> None:
        """``count`` cells entered execution (serial or worker)."""
        self.in_flight += count
        self.registry.gauge(
            "sweep_in_flight", help="sweep cells currently executing"
        ).set(self.in_flight)

    def cell_done(
        self, source: str, cell_seconds: float = 0.0, label: str = ""
    ) -> None:
        """One cell finished; ``source`` is a ``SOURCE_*`` constant."""
        self.done += 1
        if source == SOURCE_SIMULATED:
            self.simulated += 1
        elif source == SOURCE_CACHE:
            self.cache_hits += 1
        elif source == SOURCE_FAILED:
            self.failed += 1
        if self.in_flight > 0 and source in (SOURCE_SIMULATED, SOURCE_FAILED):
            self.in_flight -= 1
        self._busy_s += cell_seconds
        registry = self.registry
        registry.counter(
            "sweep_cells_total",
            help="completed sweep cells by result source",
        ).inc(source=source)
        registry.gauge(
            "sweep_in_flight", help="sweep cells currently executing"
        ).set(self.in_flight)
        if source == SOURCE_SIMULATED:
            registry.histogram(
                "sweep_cell_seconds",
                help="wall-clock seconds per simulated sweep cell",
            ).observe(cell_seconds)
        if _trace.ENABLED:
            _trace.emit(
                _ev.SWEEP_CELL,
                cycle=0,
                core=-1,
                track="sweep",
                source=source,
                cell=label,
            )
            _trace.emit(
                _ev.SWEEP_PROGRESS,
                cycle=self.done,
                core=-1,
                track="sweep",
                done=self.done,
                total=self.total,
                simulated=self.simulated,
                cache_hits=self.cache_hits,
                failed=self.failed,
                in_flight=self.in_flight,
            )
        self.report()

    # -- derived numbers ----------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def utilization(self) -> float:
        """Mean fraction of the pool kept busy so far (0..1)."""
        wall = self.elapsed_s
        if wall <= 0:
            return 0.0
        return min(1.0, self._busy_s / (wall * self.jobs))

    def eta_s(self) -> Optional[float]:
        """Projected remaining seconds, once at least one cell ran."""
        ran = self.simulated + self.failed
        if ran == 0:
            return None
        remaining = self.total - self.done
        per_cell = self._busy_s / ran
        return remaining * per_cell / self.jobs

    # -- rendering -----------------------------------------------------

    def _line(self) -> str:
        bits = [f"[sweep] {self.done}/{self.total} cells"]
        if self.cache_hits:
            bits.append(f"{self.cache_hits} reused")
        if self.failed:
            bits.append(f"{self.failed} failed")
        if self.jobs > 1:
            bits.append(
                f"{self.jobs} workers {self.utilization():.0%} busy"
            )
        bits.append(f"{self.elapsed_s:.1f}s elapsed")
        eta = self.eta_s()
        if eta is not None and self.done < self.total:
            bits.append(f"eta {eta:.1f}s")
        return " · ".join(bits)

    def report(self) -> None:
        """Write the progress line, rate-limited until the last cell is
        done, whose line is always written (once per run)."""
        if self.stream is None:
            return
        now = time.monotonic()
        if self.done < self.total and now - self._last_report < self.min_interval_s:
            return
        self._last_report = now
        self.stream.write(self._line() + "\n")
        try:
            self.stream.flush()
        except (OSError, ValueError):
            pass
