"""Size-bounded cache eviction and concurrent-writer safety."""

from __future__ import annotations

import multiprocessing
import os

from helpers import small_config

from repro.parallel import cells
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell

WORKLOAD = "bfs"


def _cell(warmup=0) -> Cell:
    # warmup_instructions varies the config hash, giving distinct
    # cache keys without changing simulation cost.
    return Cell(
        label="tiny",
        workload=WORKLOAD,
        config=small_config(warmup_instructions=warmup),
        miss_scale=1.0,
    )


def _key(warmup=0) -> str:
    return cache_key(_cell(warmup))


def _entry_bytes(cache: ResultCache, cell: Cell) -> int:
    key = cache_key(cell)
    return os.path.getsize(os.path.join(cache.root, key[:2], f"{key}.json"))


class TestEviction:
    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = cells.simulate_cell(_cell())
        for warmup in range(5):
            cache.put(_key(warmup), result)
        assert len(cache) == 5 and cache.evictions == 0

    def test_stores_past_the_bound_evict_oldest_first(self, tmp_path):
        probe = ResultCache(str(tmp_path / "probe"))
        result = cells.simulate_cell(_cell())
        probe.put(_key(), result)
        entry_size = _entry_bytes(probe, _cell())

        # Room for exactly two entries; insert three.
        cache = ResultCache(str(tmp_path / "lru"), max_bytes=2 * entry_size)
        now = 1_000_000_000
        for index, warmup in enumerate((1, 2, 3)):
            cache.put(_key(warmup), result)
            key = cache_key(_cell(warmup))
            path = os.path.join(cache.root, key[:2], f"{key}.json")
            # Deterministic LRU order regardless of filesystem mtime
            # granularity.
            os.utime(path, (now + index, now + index))
        cache.put(_key(4), result)
        assert cache.evictions >= 1
        assert cache.get(_key(1)) is None  # oldest went first
        assert cache.get(_key(4)) is not None  # newest never evicted
        assert cache.total_bytes() <= 2 * entry_size

    def test_get_touches_entries_so_hot_ones_survive(self, tmp_path):
        probe = ResultCache(str(tmp_path / "probe"))
        result = cells.simulate_cell(_cell())
        probe.put(_key(), result)
        entry_size = _entry_bytes(probe, _cell())

        cache = ResultCache(str(tmp_path / "lru"), max_bytes=2 * entry_size)
        old = 1_000_000_000
        for index, warmup in enumerate((1, 2)):
            cache.put(_key(warmup), result)
            key = cache_key(_cell(warmup))
            path = os.path.join(cache.root, key[:2], f"{key}.json")
            os.utime(path, (old + index, old + index))
        # Hit entry 1 (the older by mtime): the touch must promote it
        # past entry 2, so the next eviction takes 2 instead.
        assert cache.get(_key(1)) is not None
        cache.put(_key(3), result)
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(2)) is None

    def test_single_oversized_entry_is_kept(self, tmp_path):
        # A bound smaller than one result degrades to holding exactly
        # the latest entry, never to thrashing an empty directory.
        cache = ResultCache(str(tmp_path), max_bytes=1)
        result = cells.simulate_cell(_cell())
        cache.put(_key(1), result)
        assert cache.get(_key(1)) is not None
        cache.put(_key(2), result)
        assert cache.get(_key(2)) is not None
        assert len(cache) == 1  # entry 1 was evicted, 2 kept


# -- concurrent writers ------------------------------------------------


def _hammer(root, max_bytes, result_json, lane, rounds, failures):
    """One writer process: interleaved puts/gets under a tight bound."""
    try:
        from repro.core.results import SimulationResult

        cache = ResultCache(root, max_bytes=max_bytes)
        result = SimulationResult.from_json(result_json)
        for round_index in range(rounds):
            for warmup in range(4):
                key = _key(warmup)
                cache.put(key, result)
                # Reads must only ever see a complete entry or a miss —
                # never a torn file (atomic temp+rename) — no matter
                # what the other writers/evictors are doing.
                restored = cache.get(key)
                if restored is not None:
                    if restored.canonical_json() != result_json:
                        failures.put(
                            f"lane {lane}: torn read at round {round_index}"
                        )
                        return
            cache.get(_key(lane % 4))
    except BaseException as exc:  # noqa: BLE001 — report, don't hang
        failures.put(f"lane {lane}: {type(exc).__name__}: {exc}")


class TestConcurrentWriters:
    def test_parallel_processes_race_harmlessly(self, tmp_path):
        result = cells.simulate_cell(_cell())
        result_json = result.canonical_json()
        probe = ResultCache(str(tmp_path / "probe"))
        probe.put(_key(), result)
        entry_size = _entry_bytes(probe, _cell())

        root = str(tmp_path / "shared")
        max_bytes = 2 * entry_size  # tight: forces concurrent eviction
        context = multiprocessing.get_context("spawn")
        failures = context.Queue()
        workers = [
            context.Process(
                target=_hammer,
                args=(root, max_bytes, result_json, lane, 6, failures),
            )
            for lane in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)
        problems = []
        while not failures.empty():
            problems.append(failures.get())
        assert problems == []

        # No temp droppings survive, every remaining entry is whole,
        # and one final bounded put (no concurrency) restores the
        # advisory bound exactly.
        leftovers = [
            name
            for _dir, _subdirs, names in os.walk(root)
            for name in names
            if not name.endswith(".json")
        ]
        assert leftovers == []
        cache = ResultCache(root, max_bytes=max_bytes)
        for warmup in range(4):
            restored = cache.get(_key(warmup))
            assert restored is None or (
                restored.canonical_json() == result_json
            )
        cache.put(_key(9), result)
        assert cache.total_bytes() <= max_bytes
