"""The ``BENCH_<n>.json`` performance-trajectory files.

Every ``python -m repro.harness bench`` run writes one schema-versioned
report at the repo root — ``BENCH_1.json``, ``BENCH_2.json``, ... — so
the sequence forms a tracked perf trajectory: any later hot-path PR
takes its before/after numbers from consecutive files.

Schema (``BENCH_SCHEMA_VERSION`` = 1)::

    {
      "schema_version": 1,
      "kind": "repro-bench",
      "mode": "quick" | "full" | "custom",
      "host": {
        "python": str,      # interpreter version, e.g. "3.11.9"
        "platform": str,    # platform.platform() of the measuring host
        "machine": str,     # optional: platform.machine(), e.g. "x86_64"
        "cpu_count": int
      },
      "git": {              # optional: absent outside a git checkout
        "commit": str,      # HEAD hash the run measured
        "dirty": bool       # uncommitted changes present? (null if
                            # `git status` itself failed)
      },
      "figures": {
        "<figure>": {
          "wall_s": float,        # host wall time for the figure
          "cells": int,           # (config, workload) cells simulated
          "cells_per_s": float,
          "sim_cycles": int,      # simulated cycles across the cells
          "cycles_per_s": float,  # simulated cycles per host second
          "phases": {"<phase>": {"calls", "self_s", "total_s"}, ...},
          "observed_wall_s": float,   # optional (bench --observed):
          "observed_overhead": float  # traced+spanned re-run and its
                                      # ratio to the untraced wall time
        }, ...
      },
      "totals": {"wall_s", "cells", "cells_per_s", "sim_cycles",
                 "cycles_per_s",
                 "peak_rss_kb",            # peak RSS after the plain passes
                 "memo_entries"?,          # optional: {memo: entries} after
                                           # the plain passes (build,
                                           # coalesce, tbc_trace,
                                           # address_space, walk_plan)
                 "observed_wall_s"?, "observed_overhead"?,
                 "observed_peak_rss_kb"?}, # optional (bench --observed):
                                           # peak RSS after the observed
                                           # passes, which run last
      "metrics": { ... repro.prof.export.registry_to_dict ... }
    }

``host.machine`` and the ``git`` section postdate ``BENCH_1.json``;
both are optional so earlier reports keep validating, but every new
report written inside a checkout records the exact commit its numbers
measured.  ``totals.observed_peak_rss_kb`` postdates ``BENCH_5.json``:
until then the observed passes interleaved with the plain ones, so an
``--observed`` report's ``peak_rss_kb`` was the observed peak.
``totals.memo_entries`` postdates ``BENCH_7.json``; when present it
maps each memo's name to a non-negative entry count.  Through
``BENCH_9.json`` its fourth memo was ``vpn_order`` (per-item page-touch
order); ``address_space`` (the shared pre-mapped page tables) replaced
it in ``BENCH_10.json``.  ``walk_plan`` (the scheduled walker's batch
plans, kept on those tables) first appears in ``BENCH_11.json``.

Comparison is threshold-based and wall-clock aware: a figure regresses
when its wall time grows (or its cells/s throughput shrinks) by more
than the threshold versus the baseline file.  CI runs the comparison
warn-only (hosted runners are noisy); locally ``--strict`` turns any
regression verdict into a non-zero exit.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Bumped when the report layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Report files are ``BENCH_<n>.json`` at the repo root.
BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: Default regression threshold: a figure's wall time may grow (or its
#: throughput shrink) by up to this fraction before the verdict flips.
#: Wall clocks on shared machines jitter by ~10-20 %; 35 % keeps the
#: verdict meaningful while staying quiet on noise.
DEFAULT_THRESHOLD = 0.35

VERDICT_OK = "ok"
VERDICT_REGRESSION = "regression"
VERDICT_IMPROVED = "improved"
VERDICT_NEW = "new"
VERDICT_REMOVED = "removed"


def bench_paths(root: pathlib.Path) -> List[pathlib.Path]:
    """Every ``BENCH_<n>.json`` under ``root``, ordered by ``n``."""
    found: List[Tuple[int, pathlib.Path]] = []
    for path in root.iterdir():
        match = BENCH_PATTERN.match(path.name)
        if match is not None:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def next_bench_path(root: pathlib.Path) -> pathlib.Path:
    """The next unused ``BENCH_<n>.json`` path under ``root``."""
    existing = bench_paths(root)
    if not existing:
        return root / "BENCH_1.json"
    last = int(BENCH_PATTERN.match(existing[-1].name).group(1))
    return root / f"BENCH_{last + 1}.json"


def latest_bench_path(
    root: pathlib.Path, mode: Optional[str] = None
) -> Optional[pathlib.Path]:
    """The highest-numbered existing report, or None.

    With ``mode``, the highest-numbered report of that matrix mode:
    reports of another mode, and files that do not parse, are skipped.
    """
    for path in reversed(bench_paths(root)):
        if mode is None or _report_mode(path) == mode:
            return path
    return None


def _report_mode(path: pathlib.Path) -> Optional[str]:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return report.get("mode") if isinstance(report, dict) else None


def validate(report: Dict[str, Any]) -> List[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if report.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {report.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    if report.get("kind") != "repro-bench":
        problems.append(f"kind {report.get('kind')!r} != 'repro-bench'")
    figures = report.get("figures")
    if not isinstance(figures, dict) or not figures:
        problems.append("figures section missing or empty")
        figures = {}
    for name, entry in figures.items():
        for key in ("wall_s", "cells", "cells_per_s", "sim_cycles",
                    "cycles_per_s", "phases"):
            if key not in entry:
                problems.append(f"figures[{name!r}] missing {key!r}")
        for phase, record in entry.get("phases", {}).items():
            for key in ("calls", "self_s", "total_s"):
                if key not in record:
                    problems.append(
                        f"figures[{name!r}].phases[{phase!r}] missing {key!r}"
                    )
    totals = report.get("totals")
    if not isinstance(totals, dict):
        problems.append("totals section missing")
    else:
        for key in ("wall_s", "cells", "cells_per_s", "sim_cycles",
                    "cycles_per_s", "peak_rss_kb"):
            if key not in totals:
                problems.append(f"totals missing {key!r}")
        memos = totals.get("memo_entries", {})
        if not isinstance(memos, dict) or not all(
            isinstance(count, int) and count >= 0 for count in memos.values()
        ):
            problems.append(
                "totals.memo_entries must map memo names to entry counts"
            )
    if "metrics" not in report:
        problems.append("metrics section missing")
    return problems


def load(path: pathlib.Path) -> Dict[str, Any]:
    """Read and schema-check one report; raises ``ValueError`` if invalid."""
    report = json.loads(path.read_text())
    problems = validate(report)
    if problems:
        raise ValueError(
            f"{path} is not a valid bench report: {'; '.join(problems)}"
        )
    return report


def save(report: Dict[str, Any], path: pathlib.Path) -> None:
    """Write one report (canonical two-space JSON, trailing newline)."""
    problems = validate(report)
    if problems:
        raise ValueError(f"refusing to write invalid report: {problems}")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@dataclass
class FigureVerdict:
    """Comparison outcome for one figure."""

    figure: str
    verdict: str
    wall_ratio: Optional[float] = None
    throughput_ratio: Optional[float] = None
    detail: str = ""


@dataclass
class Comparison:
    """Outcome of comparing a report against a baseline report."""

    baseline_name: str
    threshold: float
    figures: List[FigureVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[FigureVerdict]:
        """Figures whose verdict is a regression."""
        return [f for f in self.figures if f.verdict == VERDICT_REGRESSION]

    @property
    def verdict(self) -> str:
        """Overall verdict: regression wins over improved wins over ok."""
        verdicts = {f.verdict for f in self.figures}
        if VERDICT_REGRESSION in verdicts:
            return VERDICT_REGRESSION
        if VERDICT_IMPROVED in verdicts:
            return VERDICT_IMPROVED
        return VERDICT_OK

    def render(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"== bench compare vs {self.baseline_name} "
            f"(threshold ±{self.threshold:.0%}) =="
        ]
        width = max((len(f.figure) for f in self.figures), default=6)
        for item in self.figures:
            bits = [f"{item.figure:<{width}s}  {item.verdict:<10s}"]
            if item.wall_ratio is not None:
                bits.append(f"wall x{item.wall_ratio:.2f}")
            if item.throughput_ratio is not None:
                bits.append(f"cells/s x{item.throughput_ratio:.2f}")
            if item.detail:
                bits.append(item.detail)
            lines.append("  ".join(bits))
        lines.append(f"overall: {self.verdict}")
        return "\n".join(lines)


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    baseline_name: str = "baseline",
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Threshold-based per-figure regression verdicts.

    A figure regresses when wall time grows by more than ``threshold``
    *or* cells/s throughput shrinks by more than ``threshold``; it
    improves when wall time shrinks by more than ``threshold`` without
    a throughput regression.  Figures present on only one side are
    ``new`` / ``removed`` (never a regression — matrices evolve).
    """
    result = Comparison(baseline_name=baseline_name, threshold=threshold)
    current_figures = current.get("figures", {})
    baseline_figures = baseline.get("figures", {})
    for name in sorted(set(current_figures) | set(baseline_figures)):
        now = current_figures.get(name)
        before = baseline_figures.get(name)
        if before is None:
            result.figures.append(
                FigureVerdict(figure=name, verdict=VERDICT_NEW)
            )
            continue
        if now is None:
            result.figures.append(
                FigureVerdict(figure=name, verdict=VERDICT_REMOVED)
            )
            continue
        wall_ratio = (
            now["wall_s"] / before["wall_s"] if before["wall_s"] > 0 else None
        )
        thr_ratio = (
            now["cells_per_s"] / before["cells_per_s"]
            if before["cells_per_s"] > 0
            else None
        )
        verdict = VERDICT_OK
        detail = ""
        if wall_ratio is not None and wall_ratio > 1 + threshold:
            verdict = VERDICT_REGRESSION
            detail = (
                f"wall {before['wall_s']:.2f}s -> {now['wall_s']:.2f}s"
            )
        elif thr_ratio is not None and thr_ratio < 1 - threshold:
            verdict = VERDICT_REGRESSION
            detail = (
                f"throughput {before['cells_per_s']:.2f} -> "
                f"{now['cells_per_s']:.2f} cells/s"
            )
        elif wall_ratio is not None and wall_ratio < 1 - threshold:
            verdict = VERDICT_IMPROVED
            detail = (
                f"wall {before['wall_s']:.2f}s -> {now['wall_s']:.2f}s"
            )
        result.figures.append(
            FigureVerdict(
                figure=name,
                verdict=verdict,
                wall_ratio=wall_ratio,
                throughput_ratio=thr_ratio,
                detail=detail,
            )
        )
    return result
