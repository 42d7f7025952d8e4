"""The stable public facade: ``simulate``, ``sweep``, ``figure``.

These three keyword-only entry points are the supported surface for
user code — everything the README quickstart does goes through them::

    from repro.api import simulate, sweep, figure

    result = simulate(config="augmented", workload="bfs")
    rows = sweep(configs={"base": "no_tlb", "aug": "augmented"},
                 workloads=["bfs", "kmeans"], jobs=4)
    fig07 = figure(name="fig07", jobs=4)

``config`` arguments accept a :class:`repro.core.config.GPUConfig`, a
preset name (see ``GPUConfig.preset`` / :data:`repro.core.presets.PRESETS`),
or a zero-argument factory returning a config.  Sweeps fan cells out to
a :mod:`repro.parallel` worker pool when ``jobs > 1`` and reuse the
content-addressed result cache when ``cache`` names a directory, which
is also how a killed sweep resumes — with series guaranteed
byte-identical to a serial run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.config import GPUConfig
from repro.core.results import SimulationResult
from repro.core.simulator import Simulator
from repro.prof.registry import record_result
from repro.workloads.base import TIMING_MISS_SCALE, Workload
from repro.workloads.registry import get_workload

__all__ = ["simulate", "sweep", "figure"]

ConfigLike = Union[GPUConfig, str, Callable[[], GPUConfig]]


def _resolve_config(config: ConfigLike) -> GPUConfig:
    if isinstance(config, GPUConfig):
        return config
    if isinstance(config, str):
        return GPUConfig.preset(config)
    if callable(config):
        built = config()
        if not isinstance(built, GPUConfig):
            raise TypeError(
                f"config factory returned {type(built).__name__}, "
                "expected GPUConfig"
            )
        return built
    raise TypeError(
        f"config must be a GPUConfig, preset name, or factory; "
        f"got {type(config).__name__}"
    )


def _resolve_workload(workload: Union[Workload, str]) -> Workload:
    if isinstance(workload, str):
        return get_workload(workload)
    return workload


def _progress_stream(progress: bool):
    import sys

    return sys.stderr if progress else None


def simulate(
    *,
    config: ConfigLike,
    workload: Union[Workload, str],
    form: Optional[str] = None,
    miss_scale: float = TIMING_MISS_SCALE,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run one workload on one machine configuration.

    Parameters
    ----------
    config:
        A :class:`GPUConfig`, a preset name (``"no_tlb"``,
        ``"blocking"``, ``"augmented"``, ``"ideal"``, ...), or a
        zero-argument config factory.
    workload:
        A workload name (see :func:`repro.workloads.workload_names`) or
        a built :class:`repro.workloads.base.Workload`.
    form:
        ``None``/``"linear"`` for per-warp traces, ``"blocks"`` for the
        TBC experiments' thread-block form.
    miss_scale:
        Address-stream timing scale; figures use the default, workload
        characterization passes 1.0.
    engine:
        Simulator core (see :func:`repro.engines.available_engines`):
        ``"event"`` (the default) or ``"cycle"`` (the reference
        oracle).  ``None`` keeps the config's own ``engine`` field.
        Both produce byte-identical results; the engine still
        participates in config hashes and result-cache keys.
    """
    machine = _resolve_config(config)
    if engine is not None:
        machine = machine.with_(engine=engine)
    return _simulate(machine, workload, form, miss_scale)


def _simulate(
    machine: GPUConfig,
    workload: Union[Workload, str],
    form: Optional[str],
    miss_scale: float,
    poll: Optional[Callable[[], None]] = None,
) -> SimulationResult:
    """Build ``workload`` for ``machine``, run it, record the result.

    ``poll`` is the issue loop's per-iteration hook (see
    :meth:`repro.core.simulator.Simulator.run`): a pool worker's cell
    (:func:`repro.parallel.cells.simulate_cell`) heartbeats from it.
    """
    work_source = _resolve_workload(workload)
    work = work_source.build(machine, form=form, miss_scale=miss_scale)
    result = Simulator(machine, work, work_source.name).run(poll)
    # Observation-only mirror of the run's counters into the unified
    # metrics registry; never feeds back into results.  The engine label
    # keeps per-engine series separable (and lets tests pin that both
    # engines mirror identical sim_* counters).
    record_result(result, engine=machine.engine)
    return result


def sweep(
    *,
    configs: Mapping[str, ConfigLike],
    workloads: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    retries: int = 0,
    cache: Optional[str] = None,
    cache_max_mb: Optional[float] = None,
    timeout: Optional[float] = None,
    form: Optional[str] = None,
    miss_scale: float = TIMING_MISS_SCALE,
    baseline: Optional[str] = None,
    progress: bool = False,
    engine: Optional[str] = None,
) -> List["FigureResult"]:
    """Run every (config, workload) cell, optionally in parallel.

    Returns one :class:`repro.harness.experiment.FigureResult` per
    config label (in ``configs`` order), each carrying a ``"cycles"``
    series over the workloads — plus a ``"speedup vs <baseline>"``
    series when ``baseline`` names one of the labels.

    ``jobs`` > 1 fans cells out to that many worker processes (series
    stay byte-identical to a serial run); ``cache`` names a
    content-addressed result-cache directory shared across sweeps and
    figures, which each finished cell is stored in at once, so a killed
    sweep rerun with it resumes (``cache_max_mb`` bounds its size with
    LRU eviction); ``timeout`` bounds each cell's
    wall-clock seconds; ``retries`` re-attempts cells that die with a
    structured simulator error; ``engine`` runs every cell on the named
    simulator core (``"event"``/``"cycle"``), overriding each config's
    own choice (the engine is part of cache keys, so the two engines
    never collide in the result cache).
    """
    from repro.harness.experiment import (
        FigureResult,
        run_matrix,
        sweep_session,
    )

    if baseline is not None and baseline not in configs:
        raise ValueError(
            f"baseline {baseline!r} is not a config label; "
            f"have {sorted(configs)}"
        )
    factories = {
        label: (lambda spec=spec: _resolve_config(spec))
        for label, spec in configs.items()
    }
    with sweep_session(
        cell_retries=retries,
        jobs=jobs,
        cache_dir=cache,
        cell_timeout=timeout,
        progress_stream=_progress_stream(progress),
        cache_max_mb=cache_max_mb,
        engine=engine,
    ):
        results = run_matrix(
            factories, workloads=workloads, form=form, miss_scale=miss_scale
        )
    rows: List[FigureResult] = []
    for label, per_workload in results.items():
        series: Dict[str, Dict[str, float]] = {
            "cycles": {
                name: float(result.cycles)
                for name, result in per_workload.items()
            }
        }
        if baseline is not None and label != baseline:
            series[f"speedup vs {baseline}"] = {
                name: result.speedup_vs(results[baseline][name])
                for name, result in per_workload.items()
            }
        rows.append(
            FigureResult(
                figure=label,
                title=factories[label]().describe(),
                series=series,
            )
        )
    return rows


def figure(
    *,
    name: str,
    workloads: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    retries: int = 0,
    cache: Optional[str] = None,
    cache_max_mb: Optional[float] = None,
    timeout: Optional[float] = None,
    progress: bool = False,
    engine: Optional[str] = None,
) -> "FigureResult":
    """Regenerate one paper figure (``"fig02"`` ... ``"sec9"``).

    The figure's sweep inherits ``jobs``/``cache``/``retries``/
    ``timeout`` exactly as :func:`sweep` does, and
    ``engine`` runs every cell of the figure on the named simulator
    core (``"event"``/``"cycle"``; None keeps each config's own).
    Unknown names raise ``ValueError`` listing the valid figure ids.
    """
    from repro.harness.experiment import sweep_session
    from repro.harness.figures import ALL_FIGURES

    driver = ALL_FIGURES.get(name)
    if driver is None:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(ALL_FIGURES)}"
        )
    with sweep_session(
        cell_retries=retries,
        jobs=jobs,
        cache_dir=cache,
        cell_timeout=timeout,
        progress_stream=_progress_stream(progress),
        cache_max_mb=cache_max_mb,
        engine=engine,
    ):
        return driver(workloads=workloads)
