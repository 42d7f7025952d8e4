"""Parallel sweep execution: worker pool, result cache, progress.

The paper's figures are (config, workload) matrices whose cells are
embarrassingly parallel; this package fans them out to a multiprocess
pool while keeping the output *byte-identical* to a serial run:

- :mod:`repro.parallel.cells` — the picklable unit of work and the one
  execution path every simulated cell takes (retries, timeouts, the
  pool worker's heartbeat);
- :mod:`repro.parallel.cache` — a content-addressed result cache keyed
  by canonical config hash + workload + code-version salt, so reruns
  and overlapping figures skip already-simulated cells;
- :mod:`repro.parallel.pool` — :class:`SweepExecutor`, the
  serial/parallel engine that resolves each cell by its content key
  (memo, cache, then simulation; single-writer parent, spawned workers,
  earliest-cell failure semantics);
- :mod:`repro.parallel.progress` — live cells/cache/worker/ETA
  reporting through a stream and :mod:`repro.obs` events.

Entry points: ``python -m repro.harness <figure> --jobs N`` on the
command line, ``jobs=`` on :func:`repro.api.sweep` /
:func:`repro.api.figure`, or :func:`repro.harness.experiment.sweep_session`
for ambient configuration of existing figure drivers.
"""

from repro.parallel.cache import SIMULATION_VERSION, ResultCache, cache_key
from repro.parallel.cells import Cell, execute_cell, reseeded
from repro.parallel.pool import SweepExecutor, default_jobs
from repro.parallel.progress import SweepProgress

__all__ = [
    "Cell",
    "ResultCache",
    "SIMULATION_VERSION",
    "SweepExecutor",
    "SweepProgress",
    "cache_key",
    "default_jobs",
    "execute_cell",
    "reseeded",
]
