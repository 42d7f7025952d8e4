"""Content-addressed result cache: round trips and short-circuiting."""

from __future__ import annotations

import os

from helpers import small_config

from repro.harness.experiment import run_matrix, sweep_session
from repro.parallel import cells
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell

WORKLOAD = "bfs"


def _cell(**overrides) -> Cell:
    defaults = dict(
        label="tiny", workload=WORKLOAD, config=small_config(), miss_scale=1.0
    )
    defaults.update(overrides)
    return Cell(**defaults)


def test_cache_key_is_content_addressed_not_label_addressed():
    # Two series labels over the identical machine share one entry;
    # any config difference splits them.
    assert cache_key(_cell(label="a")) == cache_key(_cell(label="b"))
    assert cache_key(_cell()) != cache_key(
        _cell(config=small_config(warmup_instructions=7))
    )
    assert cache_key(_cell()) != cache_key(_cell(workload="kmeans"))
    assert cache_key(_cell()) != cache_key(_cell(miss_scale=2.0))


def test_round_trip_is_byte_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = _cell()
    result = cells.simulate_cell(cell)
    cache.put(cache_key(cell), result)
    restored = cache.get(cache_key(cell))
    assert restored is not None
    assert restored.canonical_json() == result.canonical_json()
    assert cache.hits == 1 and cache.stores == 1 and len(cache) == 1


def test_corrupt_entry_degrades_to_a_miss(tmp_path):
    # Torn JSON, and JSON that parses but is not a result, all miss.
    cache = ResultCache(str(tmp_path))
    cell = _cell()
    key = cache_key(cell)
    cache.put(key, cells.simulate_cell(cell))
    path = os.path.join(cache.root, key[:2], f"{key}.json")
    corrupt = ["{torn", "{}", "[]", "null", '{"workload": "bfs"}']
    for text in corrupt:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert cache.get(key) is None, text
    assert cache.misses == len(corrupt)


def test_cache_hit_short_circuits_simulation(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    configs = {"tiny": lambda: small_config()}
    with sweep_session(cache_dir=cache_dir):
        first = run_matrix(configs, workloads=[WORKLOAD])

    def _boom(*args, **kwargs):
        raise AssertionError("cell was re-simulated despite cache entry")

    monkeypatch.setattr(cells, "simulate_cell", _boom)
    with sweep_session(cache_dir=cache_dir):
        second = run_matrix(configs, workloads=[WORKLOAD])
    a = first["tiny"][WORKLOAD]
    b = second["tiny"][WORKLOAD]
    assert a.canonical_json() == b.canonical_json()


def test_cache_is_shared_across_series_labels(tmp_path, monkeypatch):
    # A second sweep running the same machine under a different label
    # reuses the entry: content addressing, not label addressing.
    cache_dir = str(tmp_path / "cache")
    with sweep_session(cache_dir=cache_dir):
        run_matrix({"first": lambda: small_config()}, workloads=[WORKLOAD])

    def _boom(*args, **kwargs):
        raise AssertionError("identical machine re-simulated")

    monkeypatch.setattr(cells, "simulate_cell", _boom)
    with sweep_session(cache_dir=cache_dir):
        renamed = run_matrix(
            {"second": lambda: small_config()}, workloads=[WORKLOAD]
        )
    assert renamed["second"][WORKLOAD].cycles > 0
