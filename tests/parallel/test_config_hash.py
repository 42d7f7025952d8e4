"""Canonical config hashing: the identity under cell and cache keys."""

from __future__ import annotations

import dataclasses
import json

from helpers import small_config

from repro.core.config import GPUConfig, canonical_config_json, config_hash
from repro.parallel.cells import Cell, key_of


def test_hash_ignores_field_order():
    # Two dicts with the same content in different insertion order must
    # hash identically — this is what makes the key survive dataclass
    # field reordering across refactors.
    config = small_config()
    data = dataclasses.asdict(config)
    reordered = dict(reversed(list(data.items())))
    assert canonical_config_json(data) == canonical_config_json(reordered)
    assert config_hash(data) == config_hash(reordered)


def test_hash_matches_dataclass_and_its_dict_form():
    config = small_config()
    assert config_hash(config) == config_hash(dataclasses.asdict(config))


def test_hash_covers_every_field():
    base = small_config()
    changed = small_config(warmup_instructions=base.warmup_instructions + 1)
    assert config_hash(base) != config_hash(changed)
    # Nested fields (the fault seed lives two levels deep) count too.
    from repro.faults.config import FaultConfig

    reseeded = small_config(faults=FaultConfig(seed=99))
    assert config_hash(base) != config_hash(reseeded)


def test_canonical_json_is_deterministic_and_compact():
    config = small_config()
    text = canonical_config_json(config)
    assert text == canonical_config_json(small_config())
    assert ": " not in text and ", " not in text  # compact separators
    assert json.loads(text)["num_cores"] == 1


def test_stable_hash_method_matches_module_function():
    config = small_config()
    assert config.stable_hash() == config_hash(config)
    assert config.canonical_dict() == dataclasses.asdict(config)


def test_cell_key_uses_the_hash_not_the_description():
    config = small_config()
    key = key_of(Cell("naive", "bfs", config))
    assert key == "naive|bfs|cfg:" + config_hash(config)[:24] + "|-|1.0"
    assert config.describe() not in key


def test_cell_key_distinguishes_labels_and_workloads():
    config = small_config()
    assert key_of(Cell("a", "bfs", config)) != key_of(Cell("b", "bfs", config))
    assert key_of(Cell("a", "bfs", config)) != key_of(
        Cell("a", "kmeans", config)
    )


def test_preset_builds_named_design_points():
    augmented = GPUConfig.preset("augmented")
    assert isinstance(augmented, GPUConfig)
    # Overrides flow through to the factory.
    warm = GPUConfig.preset("augmented", warmup_instructions=20)
    assert warm.warmup_instructions == 20
    assert config_hash(warm) != config_hash(augmented)
