"""Generic experiment plumbing shared by the per-figure drivers.

Every figure reaches the simulator one way: its driver calls
:func:`run_matrix`, which builds the (config, workload) cells and hands
them to the *ambient* :class:`repro.parallel.pool.SweepExecutor`.
Outside a session each call gets a fresh serial executor with no
cache, so nothing is remembered between calls.
:func:`sweep_session` (the CLI's ``--retries``/``--jobs``/``--cache``/
``--timeout``/``--engine`` flags, and the ``repro.api`` sweep and figure
keywords) builds one executor from its arguments and installs it, with
the engine every cell runs on, for each ``run_matrix`` call inside.

The executor resolves each cell by its content key: a result it
already resolved in the session, then the content-addressed result
cache, then simulation, fanned out to the supervised worker pool when
``jobs > 1``.  So figures that share a design point inside one session
(``python -m repro.harness all`` runs every figure in one) simulate it
once.  Parallel execution is guaranteed to produce byte-identical
results to a serial run (cells carry their own seeds; nothing depends
on completion order).

A cell that raises a structured
:class:`repro.faults.errors.SimulationError` (hang, permanent walk
error, wall-clock timeout) is retried up to ``cell_retries`` times —
with the fault seed perturbed on each retry so deterministic injection
does not simply replay the identical failure — and then fails the
sweep.  Every finished cell is already in the cache, so rerunning the
sweep with the same cache recomputes only missing or failed cells.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.core.config import GPUConfig
from repro.core.results import SimulationResult
from repro.parallel.cache import ResultCache
from repro.parallel.cells import Cell
from repro.parallel.pool import SweepExecutor
from repro.stats.report import format_series
from repro.workloads.base import TIMING_MISS_SCALE
from repro.workloads.registry import workload_names

#: Warp instructions excluded from measurement in every experiment
#: (structures warm up; see GPUConfig.warmup_instructions).
DEFAULT_WARMUP = 20


@dataclass
class FigureResult:
    """Structured output of one figure driver.

    Attributes
    ----------
    figure:
        Identifier, e.g. ``"fig07"``.
    title:
        What the paper's figure shows.
    series:
        series name → {workload (or x-value) → number}.  For speedup
        figures the numbers are speedups versus the figure's baseline.
    notes:
        Reproduction caveats surfaced next to the data.
    """

    figure: str
    title: str
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self, key_header: str = "workload") -> str:
        """Human-readable table, one column per series."""
        lines = [f"== {self.figure}: {self.title} =="]
        lines.append(format_series(self.series, key_header=key_header))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the figure's data."""
        return {
            "figure": self.figure,
            "title": self.title,
            "series": {
                name: dict(values) for name, values in self.series.items()
            },
            "notes": list(self.notes),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys) so outputs diff mechanically.

        The CI parallel smoke step compares ``--jobs 1`` and
        ``--jobs 2`` renderings of this byte-for-byte.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FigureResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            figure=data["figure"],
            title=data.get("title", ""),
            series={
                name: dict(values)
                for name, values in data.get("series", {}).items()
            },
            notes=list(data.get("notes", [])),
        )


# The ambient executor and engine (None = each config's own), installed
# by sweep_session().  run_matrix() picks them up so the per-figure
# drivers need no signature changes to become cached and parallel.
_ACTIVE: Optional[Tuple[SweepExecutor, Optional[str]]] = None


@contextlib.contextmanager
def sweep_session(
    cell_retries: int = 0,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    progress_stream: Optional[TextIO] = None,
    cache_max_mb: Optional[float] = None,
    engine: Optional[str] = None,
) -> Iterator[None]:
    """Run every :func:`run_matrix` call inside on one executor.

    The executor remembers every result it resolves, so a cell shared
    by two calls inside the session simulates once.

    Parameters
    ----------
    cell_retries:
        Extra attempts per cell after a :class:`SimulationError`.
    jobs:
        Worker processes for matrix cells (None/1 = serial in-process).
        Results are byte-identical either way.
    cache_dir:
        Directory of the content-addressed
        :class:`repro.parallel.cache.ResultCache`; None disables
        caching.  Each finished cell is stored as it completes, so a
        killed sweep rerun with the same directory resumes.
    cell_timeout:
        Wall-clock seconds allowed per cell attempt (None/0 = unbounded).
    progress_stream:
        Where live sweep progress lines go (None = silent).
    cache_max_mb:
        Size bound for the result cache in megabytes; stores past the
        bound evict the least-recently-used entries.  None = unbounded.
    engine:
        Simulator core (:func:`repro.engines.available_engines`) every
        cell inside the session runs on; None keeps each config's own
        ``engine`` field.  An unknown engine fails config validation
        when :func:`run_matrix` builds its cells, before any cell runs.
    """
    global _ACTIVE
    cache = (
        ResultCache(
            cache_dir,
            max_bytes=(
                int(cache_max_mb * 1024 * 1024)
                if cache_max_mb is not None
                else None
            ),
        )
        if cache_dir is not None
        else None
    )
    previous = _ACTIVE
    executor = SweepExecutor(
        jobs=jobs,
        cache=cache,
        retries=cell_retries,
        timeout=cell_timeout,
        progress_stream=progress_stream,
    )
    _ACTIVE = (executor, engine)
    try:
        yield
    finally:
        _ACTIVE = previous


def run_matrix(
    configs: Mapping[str, Callable[[], GPUConfig]],
    workloads: Optional[Sequence[str]] = None,
    form: Optional[str] = None,
    miss_scale: float = TIMING_MISS_SCALE,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every (config, workload) pair on the ambient executor (a
    fresh serial one outside :func:`sweep_session`).

    ``configs`` maps a series label to a zero-argument config factory
    (so each cell gets a fresh config).  Returns
    ``{label: {workload: result}}`` in input order — completion order
    never shows, which is what makes ``jobs > 1`` byte-identical to a
    serial run.  Every cell is built (and its config validated) before
    any runs.
    """
    executor, engine = _ACTIVE or (SweepExecutor(), None)
    names = list(workloads) if workloads is not None else workload_names()
    cells: List[Cell] = []
    for label, factory in configs.items():
        for name in names:
            config = factory()
            if engine is not None:
                config = config.with_(engine=engine)
            cells.append(
                Cell(
                    label=label,
                    workload=name,
                    config=config,
                    form=form,
                    miss_scale=miss_scale,
                )
            )
    results: Dict[str, Dict[str, SimulationResult]] = {
        label: {} for label in configs
    }
    for cell, result in zip(cells, executor.run(cells)):
        results[cell.label][cell.workload] = result
    return results


def speedups_vs_baseline(
    results: Mapping[str, Mapping[str, SimulationResult]],
    baseline_label: str,
) -> Dict[str, Dict[str, float]]:
    """Convert a result matrix to speedups against one of its rows."""
    baseline = results[baseline_label]
    series: Dict[str, Dict[str, float]] = {}
    for label, per_workload in results.items():
        if label == baseline_label:
            continue
        series[label] = {
            name: result.speedup_vs(baseline[name])
            for name, result in per_workload.items()
        }
    return series
