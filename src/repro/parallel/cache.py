"""Content-addressed cache of simulation results.

Figures overlap heavily — fig07 and fig10 share their ``no-tlb``,
``naive`` and ``ideal`` cells, and a rerun of any figure repeats every
cell — so the sweep engine can skip a simulation whenever an identical
one already ran.  "Identical" is decided by content, not by figure or
series label: the cache key hashes the canonical form of the
:class:`GPUConfig` (field-order independent, fault seed included), the
workload name, the trace form and miss scale, plus two version salts:

- :data:`SIMULATION_VERSION` — bump when a change makes the simulator
  produce different numbers for the same config (timing model fixes,
  workload generator changes).  Stale entries then miss instead of
  poisoning new sweeps.
- :data:`repro.core.results.RESULT_SCHEMA_VERSION` — already bumped on
  incompatible result-layout changes.

Entries are single JSON files named by their key, written atomically
(:func:`repro.durable.atomic_write`), so concurrent sweeps sharing a cache
directory can race harmlessly: the worst case is both simulating and
one overwrite with identical bytes.  Delete the directory (or bump the
salt) to invalidate.

The cache is also how a killed sweep resumes: the executor stores each
result the moment its cell finishes, so rerunning the sweep with the
same directory (``--cache DIR``) simulates only the cells that never
finished.  An entry that is missing, torn, or does not rebuild into a
result is a miss, and the rerun simulates and rewrites it.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from repro.core.config import canonical_config_json
from repro.core.results import RESULT_SCHEMA_VERSION, SimulationResult
from repro.durable import atomic_write
from repro.parallel.cells import Cell

#: Code-version salt: bump on any change to simulated timing/semantics.
SIMULATION_VERSION = "sim-v2"


def cache_key(cell: Cell) -> str:
    """Content hash identifying ``cell``'s simulation outcome."""
    payload = "\n".join(
        [
            SIMULATION_VERSION,
            f"schema-{RESULT_SCHEMA_VERSION}",
            canonical_config_json(cell.config),
            cell.workload,
            cell.form if cell.form is not None else "-",
            repr(cell.miss_scale),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of ``<key>.json`` simulation results.

    Tracks ``hits``/``misses``/``stores``/``evictions`` so progress
    reporting and tests can observe short-circuiting.

    ``max_bytes`` bounds the cache's total size: once a store pushes the
    directory past the limit, the least-recently-*used* entries (mtime
    order; :meth:`get` touches entries on hit) are deleted until it fits
    again.  The bound is advisory under concurrent writers — each
    process enforces it against its own view of the directory — which is
    safe because eviction only ever deletes whole entries, and a deleted
    entry is indistinguishable from a miss.
    """

    def __init__(self, root: str, max_bytes: Optional[int] = None):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def path(self, key: str) -> str:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        # Two-level fan-out keeps directories small on huge campaigns.
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[SimulationResult]:
        """The result stored under ``key``, or None (counted either way)."""
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            result = SimulationResult.from_json(text)
        except (OSError, ValueError, TypeError):
            # Missing, torn, or corrupt entry (including JSON that is
            # not a result): treat as a miss; a fresh simulation will
            # overwrite it.
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Touch on hit so LRU eviction spares hot entries.
            os.utime(path)
        except OSError:
            pass
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` atomically."""
        path = self.path(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        atomic_write(path, result.canonical_json())
        self.stores += 1
        if self.max_bytes is not None:
            self._evict(keep=path)

    def _entries(self):
        """Every ``(mtime, size, path)`` entry currently on disk."""
        entries = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # concurrently evicted elsewhere
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Bytes currently stored (entry payloads only)."""
        return sum(size for _mtime, size, _path in self._entries())

    def _evict(self, keep: str) -> None:
        """Delete oldest entries until the cache fits ``max_bytes``.

        ``keep`` (the entry just stored) is never evicted, even when it
        alone exceeds the bound — a cache too small for one result
        degrades to holding exactly the latest, not to thrashing
        nothing at all.
        """
        assert self.max_bytes is not None
        entries = self._entries()
        total = sum(size for _mtime, size, _path in entries)
        if total <= self.max_bytes:
            return
        for _mtime, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if os.path.abspath(path) == os.path.abspath(keep):
                continue
            try:
                os.remove(path)
            except OSError:
                continue  # lost a race with a concurrent evictor
            total -= size
            self.evictions += 1

    def __len__(self) -> int:
        """Number of entries currently stored."""
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count
