"""The engine selection surface: registry, config, API, CLI, caching.

Engines are first-class configuration: ``repro.engines`` is the
registry, ``GPUConfig.engine`` the validated field, ``engine=`` the
keyword on :func:`repro.api.simulate`/``sweep``/``figure``, ``--engine``
the CLI flag, and the choice participates in canonical config JSON —
hence config hashes, result-cache keys, and serve job ids.
"""

from __future__ import annotations

import pytest

from repro import engines
from repro.api import figure, simulate, sweep
from repro.core.config import GPUConfig, canonical_config_json
from repro.parallel.cache import cache_key
from repro.parallel.cells import Cell

_TINY = dict(num_cores=1, warps_per_core=8, warp_width=8)


class TestRegistry:
    def test_both_engines_registered(self):
        assert set(engines.available_engines()) == {"cycle", "event"}

    def test_event_is_the_default(self):
        assert engines.DEFAULT_ENGINE == "event"
        assert GPUConfig().engine == "event"

    def test_get_engine_resolves_classes(self):
        for name in engines.available_engines():
            cls = engines.get_engine(name)
            assert cls.name == name

    def test_get_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            engines.get_engine("verilog")


class TestConfig:
    def test_config_validates_engine(self):
        with pytest.raises(ValueError, match="engine"):
            GPUConfig(engine="verilog")

    def test_preset_accepts_engine(self):
        config = GPUConfig.preset("augmented", engine="cycle", **_TINY)
        assert config.engine == "cycle"

    def test_engine_is_in_canonical_config_json(self):
        event = GPUConfig.preset("no_tlb", **_TINY)
        cycle = GPUConfig.preset("no_tlb", engine="cycle", **_TINY)
        assert '"engine":"event"' in canonical_config_json(event)
        assert canonical_config_json(event) != canonical_config_json(cycle)

    def test_engine_separates_cache_keys(self):
        event = Cell("c", "bfs", GPUConfig.preset("no_tlb", **_TINY))
        cycle = Cell(
            "c", "bfs", GPUConfig.preset("no_tlb", engine="cycle", **_TINY)
        )
        assert cache_key(event) != cache_key(cycle)


class TestApi:
    def test_simulate_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(config="no_tlb", workload="bfs", engine="verilog")

    def test_sweep_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            sweep(
                configs={"a": "no_tlb"}, workloads=["bfs"], engine="verilog"
            )

    def test_figure_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            figure(name="fig02", engine="verilog")

    def test_simulate_engine_override_wins(self):
        config = GPUConfig.preset("no_tlb", **_TINY)
        result = simulate(config=config, workload="bfs", engine="cycle")
        # The override never mutates the caller's config object.
        assert config.engine == "event"
        reference = simulate(
            config=GPUConfig.preset("no_tlb", engine="cycle", **_TINY),
            workload="bfs",
        )
        assert result.canonical_json() == reference.canonical_json()


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["fig04", "--engine", "verilog"], id="figure"),
            pytest.param(
                ["bench", "--engine", "verilog"], id="bench"
            ),
            pytest.param(
                ["trace", "bfs", "--engine", "verilog"], id="trace"
            ),
            pytest.param(
                ["explain", "bfs", "--engine", "verilog"], id="explain"
            ),
            pytest.param(
                ["faults", "--engine", "verilog"], id="faults"
            ),
            pytest.param(
                ["chaos", "--engine", "verilog"], id="chaos"
            ),
        ],
    )
    def test_unknown_engine_exits_2(self, argv, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "verilog" in capsys.readouterr().err
