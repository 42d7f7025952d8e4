"""The top-level simulator: build the machine, run the workload.

Responsibilities: provide physical memory and the process page table
with every page the workload touches pre-mapped (the paper's workloads
never page-fault, Section 6.2 — unless ``config.faults.demand_paging``
asks for pages to fault in on first touch; a pre-mapped address space
is built once per work build and page size and shared, frozen, by every
later run of that build), instantiate the shared memory
system and one shader core per configured core, execute, aggregate
statistics into a :class:`repro.core.results.SimulationResult`, and
cross-check counter invariants afterwards.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import GPUConfig, TraceConfig
from repro.core.results import SimulationResult
from repro.engines import DEFAULT_ENGINE
from repro.faults.context import FaultContext, demand_paging
from repro.faults.errors import InvariantViolation, SimulationError
from repro.gpu.instruction import MemoryInstruction, WarpTrace
from repro.gpu.shader_core import ShaderCore
from repro.gpu.tbc.blocks import ThreadBlock
from repro.mem.hierarchy import SharedMemory
from repro.obs import log as _log
from repro.obs import spans as _spans
from repro.obs import tracer as obs_tracer
from repro.obs.interval import IntervalSampler
from repro.prof import profiler as _prof
from repro.ptw.multi import WalkerPool
from repro.stats.counters import CoreStats
from repro.stats.histograms import histograms_from_events
from repro.vm.address import PAGE_SHIFT_2M
from repro.vm.page_table import PageTable
from repro.vm.physical_memory import PhysicalMemory

CoreWork = Union[Sequence[WarpTrace], Sequence[ThreadBlock]]


def _addresses_of(work: CoreWork) -> Iterable[int]:
    """Yield every virtual address a core's work touches."""
    for item in work:
        if isinstance(item, ThreadBlock):
            for region in item.regions:
                for addresses in region.thread_addresses.values():
                    yield from addresses
        else:
            for instr in item.instructions:
                if isinstance(instr, MemoryInstruction):
                    for addr in instr.addresses:
                        if addr is not None:
                            yield addr


#: (page_shift, id of every work item in order) -> (items, memory,
#: page table, frame_map).  A pre-mapped address space is a pure
#: function of the work's first-touch page order and the page size, and
#: workload builds are memoized, so every cell that simulates one build
#: at one page size — across sweeps, serve executor threads and dist
#: workers — shares one frozen table, whose walk cache stays warm.
#: Values hold the items themselves, so an id() in a live key can never
#: belong to another object.
_ADDRESS_SPACES: Dict[tuple, tuple] = {}

#: Entry cap (one entry per build and page size, like the build memo's
#: cap); eviction is a full clear.
_ADDRESS_SPACE_LIMIT = 64


def _address_space(
    per_core_work: Sequence[CoreWork], page_shift: int
) -> Tuple[PhysicalMemory, PageTable, Dict[int, int]]:
    """The shared, frozen address space with every touched page mapped.

    Pages are mapped (4 KB, or 2 MB in large-page mode) in global
    first-touch order, which fixes the frame each page gets.
    ``frame_map`` (vpn → pfn at ``page_shift``) gives the no-TLB
    baseline zero-latency physical addressing, so baseline and TLB runs
    exercise identical cache set behaviour and differ only in
    translation cost.  Callers must not write to it.
    """
    items = tuple(item for work in per_core_work for item in work)
    key = (page_shift, tuple(map(id, items)))
    cached = _ADDRESS_SPACES.get(key)
    if cached is not None:
        return cached[1:]
    memory = PhysicalMemory()
    page_table = PageTable(memory)
    ensure = (
        page_table.ensure_mapped_large
        if page_shift == PAGE_SHIFT_2M
        else page_table.ensure_mapped
    )
    frame_map: Dict[int, int] = {}
    for addr in _addresses_of(items):
        vpn = addr >> page_shift
        if vpn not in frame_map:
            frame_map[vpn] = ensure(vpn)
    page_table.freeze()
    if len(_ADDRESS_SPACES) >= _ADDRESS_SPACE_LIMIT:
        _ADDRESS_SPACES.clear()
    _ADDRESS_SPACES[key] = (items, memory, page_table, frame_map)
    return memory, page_table, frame_map


#: When set, every run uses this trace configuration instead of its
#: config's own (see :func:`trace_override`).
_TRACE_OVERRIDE: Optional[TraceConfig] = None


@contextlib.contextmanager
def trace_override(trace: TraceConfig):
    """Force ``trace`` on every :meth:`Simulator.run` in the block.

    The observation-only escape hatch for entry points that build their
    configs internally (figure drivers, the bench harness): the whole
    sweep runs fully observed without touching a single config, so
    results, config hashes, and cache keys are exactly those of the
    untraced run.  Nests; restores the previous override on exit.
    """
    global _TRACE_OVERRIDE
    previous = _TRACE_OVERRIDE
    _TRACE_OVERRIDE = trace
    try:
        yield
    finally:
        _TRACE_OVERRIDE = previous


class Simulator:
    """Run a workload on a machine configuration.

    Parameters
    ----------
    config:
        The machine.
    per_core_work:
        One work list per core: warp traces (linear mode) or thread
        blocks (TBC modes).  Workload objects produce this via
        :meth:`repro.workloads.base.Workload.build`.
    workload_name:
        Label carried into the result.
    """

    def __init__(
        self,
        config: GPUConfig,
        per_core_work: Sequence[CoreWork],
        workload_name: str = "custom",
    ):
        if len(per_core_work) != config.num_cores:
            raise ValueError(
                f"workload provides {len(per_core_work)} cores of work; "
                f"config has {config.num_cores}"
            )
        self.config = config
        self.workload_name = workload_name
        if demand_paging(config.faults, config.tlb.enabled):
            # Pages fault in at first touch through the fault model, so
            # this run gets a table of its own that starts empty.
            self.memory = PhysicalMemory()
            self.page_table = PageTable(self.memory)
            self.frame_map: Dict[int, int] = {}
        else:
            self.memory, self.page_table, self.frame_map = _address_space(
                per_core_work, config.page_shift
            )
        self.faults = FaultContext.build(
            config.faults,
            self.page_table,
            tlb_enabled=config.tlb.enabled,
            page_shift=config.page_shift,
        )
        dram = config.dram
        cache = config.cache
        # Cores execute sequentially in this simulator, and the
        # workloads give every core disjoint pages, so cores interact
        # only through shared *bandwidth*.  Each core therefore gets its
        # own memory-system instance carrying its 1/num_cores share of
        # the channels (service intervals scale when channels do not
        # divide evenly), which models contention without coupling the
        # cores' clocks.
        channels_per_core = max(1, dram.num_channels // config.num_cores)
        scale = config.num_cores * channels_per_core / dram.num_channels
        self.shared_per_core: List[SharedMemory] = [
            SharedMemory(
                num_channels=channels_per_core,
                l2_bytes_per_channel=cache.l2_bytes_per_channel
                * dram.num_channels
                // (config.num_cores * channels_per_core),
                line_bytes=cache.line_bytes,
                l2_associativity=cache.l2_associativity,
                l2_latency=cache.l2_latency,
                l2_service_interval=max(
                    1, round(cache.l2_service_interval * scale)
                ),
                interconnect_latency=dram.interconnect_latency,
                dram_latency=dram.access_latency,
                dram_service_interval=max(
                    1, round(dram.service_interval * scale)
                ),
            )
            for _ in range(config.num_cores)
        ]
        self.cores: List[ShaderCore] = [
            ShaderCore(
                core_id,
                config,
                self.page_table,
                self.shared_per_core[core_id],
                work,
                frame_map=self.frame_map,
                faults=self.faults,
            )
            for core_id, work in enumerate(per_core_work)
        ]

    def run(self, poll=None) -> SimulationResult:
        """Execute every core and aggregate the statistics.

        When ``config.trace.enabled`` a tracer is installed for the
        duration of the run; the instrumentation is observation-only,
        so every simulated quantity is identical with tracing on or off
        (``tests/obs/test_overhead.py`` asserts this).

        ``poll``, when given, is forwarded to each core's issue loop
        and called with no arguments at the top of every iteration (the
        supervised pool's worker heartbeat rides on it).
        """
        trace_config = (
            _TRACE_OVERRIDE
            if _TRACE_OVERRIDE is not None
            else self.config.trace
        )
        tracer = None
        if trace_config.enabled:
            tracer = obs_tracer.build_tracer(trace_config)
            obs_tracer.install(tracer)
            if trace_config.interval_cycles:
                for core in self.cores:
                    core.sampler = IntervalSampler(
                        trace_config.interval_cycles, core_id=core.core_id
                    )
        merged = CoreStats(cores=0)
        l1_hits = l1_misses = total_l1_miss_latency = 0
        walk_cycles = walks = 0
        run_log = None
        if _log.ENABLED:
            run_log = _log.get_logger(
                "simulator",
                engine=getattr(self.config, "engine", DEFAULT_ENGINE),
                config=self.config.stable_hash()[:12],
                workload=self.workload_name,
            )
            run_log.info(
                "run_start",
                cores=len(self.cores),
                traced=trace_config.enabled,
                spans=_spans.ENABLED,
            )
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_SIMULATE)
        try:
            for core in self.cores:
                try:
                    stats = core.run(poll)
                except SimulationError as exc:
                    exc.add_context(
                        workload=self.workload_name,
                        config=self.config.describe(),
                        core=core.core_id,
                    )
                    if run_log is not None:
                        run_log.error(
                            "run_failed",
                            core=core.core_id,
                            error=type(exc).__name__,
                        )
                    raise
                merged.merge(stats)
                hits, misses, miss_latency = core.steady_memory_counters()
                l1_hits += hits
                l1_misses += misses
                total_l1_miss_latency += miss_latency
                core_walks, _, _, core_walk_cycles = core.steady_walker_counters()
                walk_cycles += core_walk_cycles
                walks += core_walks
        finally:
            if _prof.ENABLED:
                # Closes the simulate frame plus any frames an error
                # left open mid-walk, so attribution stays balanced.
                _prof.end_through(_prof.PHASE_SIMULATE)
            if tracer is not None:
                obs_tracer.uninstall()
        if self.faults is not None and self.faults.model is not None:
            model = self.faults.model
            merged.page_faults_minor = model.minor_faults
            merged.page_faults_major = model.major_faults
            merged.page_fault_stall_cycles = model.fault_stall_cycles
        self._check_invariants(merged)
        l2_hits = sum(s.l2_hits for s in self.shared_per_core)
        l2_misses = sum(s.l2_misses for s in self.shared_per_core)
        ptw_refs = sum(s.ptw_refs for s in self.shared_per_core)
        ptw_l2_hits = sum(s.ptw_l2_hits for s in self.shared_per_core)
        dram_requests = sum(s.dram.requests for s in self.shared_per_core)
        result = SimulationResult(
            workload=self.workload_name,
            config_description=self.config.describe(),
            cycles=merged.cycles,
            stats=merged,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            avg_l1_miss_cycles=(
                total_l1_miss_latency / l1_misses if l1_misses else 0.0
            ),
            avg_walk_cycles=walk_cycles / walks if walks else 0.0,
            l2_hits=l2_hits,
            l2_misses=l2_misses,
            ptw_refs=ptw_refs,
            ptw_l2_hit_rate=ptw_l2_hits / ptw_refs if ptw_refs else 0.0,
            dram_requests=dram_requests,
        )
        if _prof.ENABLED:
            _prof.add("cells", 1)
            _prof.add("sim_cycles", result.cycles)
        if tracer is not None:
            result.interval_series = [
                row
                for core in self.cores
                if core.sampler is not None
                for row in core.sampler.rows
            ]
            ring = tracer.ring()
            if ring is not None:
                result.histograms = {
                    name: hist.to_dict()
                    for name, hist in histograms_from_events(
                        ring.events()
                    ).items()
                }
            tracer.close()
        if run_log is not None:
            run_log.info(
                "run_end",
                cycles=result.cycles,
                instructions=merged.instructions,
                tlb_misses=merged.tlb_misses,
            )
        return result

    def _check_invariants(self, merged: CoreStats) -> None:
        """Cheap post-run consistency checks on the aggregated counters.

        These catch wiring bugs (a counter updated on one path but not
        another) at the point they happen rather than as a silently
        wrong figure; they hold for every machine configuration, with
        faults enabled or not.
        """
        context = {
            "workload": self.workload_name,
            "config": self.config.describe(),
        }
        if merged.tlb_hits + merged.tlb_misses != merged.tlb_lookups:
            raise InvariantViolation(
                f"TLB accounting broken: {merged.tlb_hits} hits + "
                f"{merged.tlb_misses} misses != {merged.tlb_lookups} lookups",
                diagnostics=context,
            )
        if merged.memory_instructions > merged.instructions:
            raise InvariantViolation(
                f"{merged.memory_instructions} memory instructions exceed "
                f"{merged.instructions} total instructions",
                diagnostics=context,
            )
        for name, value in vars(merged).items():
            if isinstance(value, int) and value < 0:
                raise InvariantViolation(
                    f"counter {name!r} went negative ({value})",
                    diagnostics=context,
                )
