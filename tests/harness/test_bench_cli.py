"""End-to-end ``python -m repro.harness bench`` acceptance flow."""

from __future__ import annotations

import json

import pytest

from repro.harness import bench
from repro.harness.bench import main as bench_main
from repro.prof import benchfile

ARGS = ["--figures", "fig04", "--workloads", "kmeans"]


class TestBenchCli:
    def test_two_runs_write_sequence_and_compare(self, tmp_path, capsys):
        assert bench_main(ARGS + ["--dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert "wrote" in first and "BENCH_1.json" in first
        assert "bench compare" not in first  # no baseline yet

        # A custom matrix has no automatic baseline; name one.
        first_path = str(tmp_path / "BENCH_1.json")
        assert bench_main(
            ARGS + ["--dir", str(tmp_path), "--compare", first_path]
        ) == 0
        second = capsys.readouterr().out
        assert "BENCH_2.json" in second
        assert "bench compare vs BENCH_1.json" in second
        assert "overall:" in second

        report = benchfile.load(tmp_path / "BENCH_1.json")
        assert benchfile.validate(report) == []
        figure = report["figures"]["fig04"]
        assert figure["cells"] == 1
        assert figure["wall_s"] > 0
        assert figure["cells_per_s"] > 0
        assert figure["sim_cycles"] > 0
        assert "simulate" in figure["phases"]
        assert "tlb_lookup" in figure["phases"]
        assert report["totals"]["peak_rss_kb"] > 0
        memos = report["totals"]["memo_entries"]
        assert set(memos) == {
            "build", "coalesce", "tbc_trace", "address_space", "walk_plan"
        }
        assert memos["address_space"] > 0
        assert memos["build"] > 0 and memos["coalesce"] > 0
        assert "memo entries build" in first
        assert report["metrics"]  # registry snapshot is populated

    def test_observed_column_records_overhead(self, tmp_path, capsys):
        code = bench_main(
            ARGS + ["--dir", str(tmp_path), "--observed", "--compare", "none"]
        )
        assert code == 0
        capsys.readouterr()
        report = benchfile.load(tmp_path / "BENCH_1.json")
        assert benchfile.validate(report) == []  # extra keys stay valid
        figure = report["figures"]["fig04"]
        assert figure["observed_wall_s"] > 0
        # Tracing costs something but the observed run stays the same
        # order of magnitude; an absurd ratio means the instrumentation
        # broke (noisy CI hosts get generous slack).
        assert 0.2 < figure["observed_overhead"] < 10
        totals = report["totals"]
        assert totals["observed_wall_s"] > 0
        assert totals["observed_overhead"] > 0
        # The plain passes all run first, so the plain peak is read
        # before any observed pass can raise the high-water mark.
        assert 0 < totals["peak_rss_kb"] <= totals["observed_peak_rss_kb"]

    def test_without_observed_flag_no_observed_keys(self, tmp_path, capsys):
        assert bench_main(ARGS + ["--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        report = benchfile.load(tmp_path / "BENCH_1.json")
        assert "observed_wall_s" not in report["figures"]["fig04"]
        assert "observed_wall_s" not in report["totals"]
        assert "observed_peak_rss_kb" not in report["totals"]

    def test_strict_fails_on_synthetic_regression(self, tmp_path, capsys):
        assert bench_main(ARGS + ["--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        # Forge a baseline the real run can never beat: the comparison
        # sees a >35% wall-time growth and --strict makes that exit 1.
        baseline = json.loads((tmp_path / "BENCH_1.json").read_text())
        baseline["figures"]["fig04"]["wall_s"] = 1e-6
        baseline["figures"]["fig04"]["cells_per_s"] = 1e6
        (tmp_path / "BENCH_1.json").write_text(json.dumps(baseline))
        assert bench_main(
            ARGS + ["--dir", str(tmp_path), "--strict",
                    "--compare", str(tmp_path / "BENCH_1.json")]
        ) == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_custom_run_gets_no_automatic_baseline(self, tmp_path, capsys):
        assert bench_main(ARGS + ["--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert bench_main(ARGS + ["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_2.json" in out
        assert "bench compare" not in out
        assert "no automatic baseline for a custom matrix" in out

    def test_auto_compare_skips_reports_of_another_mode(
        self, tmp_path, capsys, monkeypatch
    ):
        # Shrink the quick matrix so a --quick run takes seconds.
        monkeypatch.setattr(bench, "QUICK_FIGURES", ("fig04",))
        monkeypatch.setattr(bench, "QUICK_WORKLOADS", ("kmeans",))
        assert bench_main(["--quick", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        full = json.loads((tmp_path / "BENCH_1.json").read_text())
        full["mode"] = "full"
        (tmp_path / "BENCH_2.json").write_text(json.dumps(full))
        assert bench_main(["--quick", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_3.json" in out
        assert "bench compare vs BENCH_1.json" in out

    def test_compare_none_skips_comparison(self, tmp_path, capsys):
        assert bench_main(ARGS + ["--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = bench_main(
            ARGS + ["--dir", str(tmp_path), "--compare", "none"]
        )
        assert code == 0
        assert "bench compare" not in capsys.readouterr().out

    def test_unknown_figure_exits_2(self, capsys):
        assert bench_main(["--figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, capsys):
        assert bench_main(["--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_missing_compare_baseline_exits_2(self, tmp_path, capsys):
        code = bench_main(
            ARGS + ["--dir", str(tmp_path), "--compare", "missing.json"]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err
