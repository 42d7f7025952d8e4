"""BENCH_<n>.json schema validation, numbering, and comparison verdicts."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.prof import benchfile


def make_report(figures=None):
    """A minimal schema-valid report with the given figure wall times."""
    if figures is None:
        figures = {"fig04": (1.0, 4)}
    figure_section = {}
    total_wall = 0.0
    total_cells = 0
    for name, (wall, cells) in figures.items():
        figure_section[name] = {
            "wall_s": wall,
            "cells": cells,
            "cells_per_s": cells / wall if wall else 0.0,
            "sim_cycles": 1000 * cells,
            "cycles_per_s": 1000 * cells / wall if wall else 0.0,
            "phases": {
                "simulate": {"calls": cells, "self_s": wall, "total_s": wall}
            },
        }
        total_wall += wall
        total_cells += cells
    return {
        "schema_version": benchfile.BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "mode": "custom",
        "host": {"python": "3.11", "platform": "test", "cpu_count": 1},
        "figures": figure_section,
        "totals": {
            "wall_s": total_wall,
            "cells": total_cells,
            "cells_per_s": total_cells / total_wall if total_wall else 0.0,
            "sim_cycles": 1000 * total_cells,
            "cycles_per_s": (
                1000 * total_cells / total_wall if total_wall else 0.0
            ),
            "peak_rss_kb": 1000,
        },
        "metrics": {},
    }


class TestValidate:
    def test_valid_report_has_no_problems(self):
        assert benchfile.validate(make_report()) == []

    def test_wrong_schema_version_flagged(self):
        report = make_report()
        report["schema_version"] = 99
        assert any("schema_version" in p for p in benchfile.validate(report))

    def test_missing_figure_fields_flagged(self):
        report = make_report()
        del report["figures"]["fig04"]["cells_per_s"]
        del report["figures"]["fig04"]["phases"]["simulate"]["self_s"]
        problems = benchfile.validate(report)
        assert any("cells_per_s" in p for p in problems)
        assert any("self_s" in p for p in problems)

    def test_memo_entries_are_optional_counts(self):
        report = make_report()
        assert benchfile.validate(report) == []  # BENCH_1-7 have none
        report["totals"]["memo_entries"] = {"build": 12, "coalesce": 0}
        assert benchfile.validate(report) == []
        for bad in ({"coalesce": -1}, {"coalesce": "12"}, [12]):
            report["totals"]["memo_entries"] = bad
            assert any(
                "memo_entries" in p for p in benchfile.validate(report)
            )

    def test_committed_reports_still_validate(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        paths = benchfile.bench_paths(root)
        assert paths
        for path in paths:
            assert benchfile.validate(json.loads(path.read_text())) == []

    def test_missing_sections_flagged(self):
        problems = benchfile.validate({})
        joined = "\n".join(problems)
        assert "figures" in joined
        assert "totals" in joined
        assert "metrics" in joined


class TestNumbering:
    def test_first_report_is_bench_1(self, tmp_path):
        assert benchfile.next_bench_path(tmp_path).name == "BENCH_1.json"
        assert benchfile.latest_bench_path(tmp_path) is None

    def test_sequence_orders_numerically_not_lexically(self, tmp_path):
        for n in (1, 2, 10):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        paths = benchfile.bench_paths(tmp_path)
        assert [p.name for p in paths] == [
            "BENCH_1.json",
            "BENCH_2.json",
            "BENCH_10.json",
        ]
        assert benchfile.latest_bench_path(tmp_path).name == "BENCH_10.json"
        assert benchfile.next_bench_path(tmp_path).name == "BENCH_11.json"

    def test_unrelated_files_ignored(self, tmp_path):
        (tmp_path / "BENCH_x.json").write_text("{}")
        (tmp_path / "notes.json").write_text("{}")
        assert benchfile.bench_paths(tmp_path) == []


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        report = make_report()
        benchfile.save(report, path)
        assert benchfile.load(path) == report
        assert path.read_text().endswith("\n")

    def test_save_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            benchfile.save({"kind": "wrong"}, tmp_path / "BENCH_1.json")

    def test_load_refuses_invalid(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"kind": "wrong"}))
        with pytest.raises(ValueError):
            benchfile.load(path)


class TestCompare:
    def test_within_threshold_is_ok(self):
        baseline = make_report({"fig04": (1.0, 4)})
        current = make_report({"fig04": (1.2, 4)})
        comparison = benchfile.compare(current, baseline, threshold=0.35)
        assert comparison.verdict == benchfile.VERDICT_OK
        assert comparison.regressions == []

    def test_wall_time_growth_regresses(self):
        baseline = make_report({"fig04": (1.0, 4)})
        current = make_report({"fig04": (2.0, 4)})
        comparison = benchfile.compare(current, baseline, threshold=0.35)
        assert comparison.verdict == benchfile.VERDICT_REGRESSION
        (verdict,) = comparison.regressions
        assert verdict.figure == "fig04"
        assert verdict.wall_ratio == pytest.approx(2.0)

    def test_wall_time_shrink_improves(self):
        baseline = make_report({"fig04": (2.0, 4)})
        current = make_report({"fig04": (1.0, 4)})
        comparison = benchfile.compare(current, baseline, threshold=0.35)
        assert comparison.verdict == benchfile.VERDICT_IMPROVED

    def test_new_and_removed_figures_never_regress(self):
        baseline = make_report({"fig04": (1.0, 4)})
        current = make_report({"fig07": (1.0, 4)})
        comparison = benchfile.compare(current, baseline)
        by_figure = {v.figure: v.verdict for v in comparison.figures}
        assert by_figure == {
            "fig04": benchfile.VERDICT_REMOVED,
            "fig07": benchfile.VERDICT_NEW,
        }
        assert comparison.verdict == benchfile.VERDICT_OK

    def test_regression_wins_over_improvement(self):
        baseline = make_report({"fig04": (1.0, 4), "fig07": (2.0, 4)})
        current = make_report({"fig04": (2.0, 4), "fig07": (1.0, 4)})
        comparison = benchfile.compare(current, baseline)
        assert comparison.verdict == benchfile.VERDICT_REGRESSION

    def test_render_mentions_baseline_and_verdicts(self):
        baseline = make_report({"fig04": (1.0, 4)})
        current = make_report({"fig04": (2.0, 4)})
        text = benchfile.compare(
            current, baseline, baseline_name="BENCH_7.json"
        ).render()
        assert "BENCH_7.json" in text
        assert "regression" in text
        assert "overall: regression" in text
