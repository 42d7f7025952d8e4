"""Distributed sweep sharding: coordinator/worker over the serve substrate.

One host cannot hold the paper's full design space — configs ×
workloads × policies multiply into thousands of sweep cells — so
:mod:`repro.dist` shards a sweep across machines while keeping the
repo's byte-identity contract intact:

- the **coordinator** (:mod:`repro.dist.coordinator`, served through
  the ``repro.serve`` daemon's ``/dist/*`` routes) keys every cell by
  its canonical config-hash identity, leases cells to workers with
  ``(cell_key, attempt)`` fencing tokens, and journals every
  transition to a :class:`repro.dist.journal.CellJournal` — the same
  write-ahead discipline as the job journal, so a crashed coordinator
  replays to exactly where it died;
- **workers** (:mod:`repro.dist.worker`, ``python -m repro.harness
  worker``) pull leases over HTTP, execute cells through the existing
  :class:`repro.parallel.pool.SweepExecutor` (one cell per lease, run
  inline), heartbeat while running, and push
  results the coordinator verifies — fencing token, config hash,
  result digest — before folding into the shared
  :class:`repro.parallel.cache.ResultCache`;
- the **fault injector** (:mod:`repro.dist.faultnet`) wraps the
  worker↔coordinator channel with seeded connection refusals, torn
  bodies, delays, duplicated deliveries, and one-way partitions, so
  ``harness chaos --distributed`` can prove the reassembled sweep is
  byte-identical to a serial run with exactly one terminal state per
  cell.

Because a cell is a pure function of its config (fault seed embedded),
*where* it ran never shows in the result: reassembly is byte-identical
no matter which workers died, which pushes duplicated, or how many
attempts a cell took.
"""

from repro.dist.coordinator import DistCoordinator
from repro.dist.protocol import (
    cell_from_wire,
    cell_to_wire,
    result_digest,
)
from repro.dist.worker import DistWorker

__all__ = [
    "DistCoordinator",
    "DistWorker",
    "cell_from_wire",
    "cell_to_wire",
    "result_digest",
]
