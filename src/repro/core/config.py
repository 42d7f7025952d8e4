"""Machine configuration dataclasses.

Defaults reproduce the paper's methodology (Section 5.2): 32-thread
warps, 48 warps per shader core, 32 KB L1 data caches with 128-byte
lines, 8 memory channels with 128 KB of unified L2 per channel, and a
128-entry per-core TLB with one hardware page table walker.

The paper simulates 30 SIMT cores; this reproduction simulates a
configurable subset (default 4) with statistically identical per-core
workloads — every reported metric is either per-core or a ratio against
a no-TLB baseline of the same core count, so the shape of the results is
insensitive to the core count (and the benchmarks run in seconds rather
than hours of pure-Python simulation).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.faults.config import FaultConfig
from repro.vm.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K


def canonical_config_json(config: Any) -> str:
    """Canonical JSON form of a (nested) config dataclass.

    Keys are emitted sorted, so the text — and anything hashed from it —
    is invariant under dataclass *field reordering*; it changes only
    when a field is added, removed, renamed, or its value differs.
    Cell keys (:func:`repro.parallel.cells.key_of`) and the sweep result
    cache both key off this (``tests/parallel/test_config_hash.py`` pins
    the invariance).
    """
    data = dataclasses.asdict(config) if dataclasses.is_dataclass(config) else config
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=repr)


def config_hash(config: Any) -> str:
    """Stable SHA-256 hex digest of :func:`canonical_config_json`."""
    return hashlib.sha256(canonical_config_json(config).encode("utf-8")).hexdigest()


def config_from_dict(data: Dict[str, Any]) -> "GPUConfig":
    """Rebuild a :class:`GPUConfig` from its :meth:`~GPUConfig.canonical_dict`.

    The inverse of ``dataclasses.asdict`` for the config tree: nested
    section dicts become their dataclasses again, and lists revert to
    tuples (JSON has no tuples; no config field is a genuine list).
    The round trip preserves :func:`config_hash`, which is what lets
    ``repro.serve`` journal a job's exact machine description and
    re-execute it after a restart with the same cache identity.
    """

    def _section(cls: type, payload: Any) -> Any:
        if not isinstance(payload, dict):
            return payload
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in payload:
                continue
            value = payload[f.name]
            if dataclasses.is_dataclass(f.type) and isinstance(value, dict):
                value = _section(f.type, value)
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[f.name] = value
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown config fields {sorted(unknown)}"
            )
        return cls(**kwargs)

    sections = {f.name: f for f in dataclasses.fields(GPUConfig)}
    unknown = set(data) - set(sections)
    if unknown:
        raise ValueError(f"GPUConfig: unknown config fields {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        f = sections[name]
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else None  # type: ignore[misc]
        if isinstance(value, dict) and dataclasses.is_dataclass(type(default)):
            kwargs[name] = _section(type(default), value)
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    return GPUConfig(**kwargs)


@dataclass(frozen=True)
class TLBConfig:
    """Per-shader-core TLB design point (Section 6.1 design space).

    Attributes
    ----------
    enabled:
        False models the paper's no-TLB baseline (all speedups are
        reported against it).
    entries / associativity / ports:
        Geometry; the naive baseline is 128-entry, 3-port, the augmented
        design 4-port, the "ideal impractical" point 512-entry, 32-port.
    blocking:
        A blocking TLB services nothing while any miss is outstanding;
        warps with memory instructions stall behind it.
    hit_under_miss:
        Non-blocking level 1: other warps may translate (and proceed on
        hits) while misses are pending.
    cache_overlap:
        Non-blocking level 2: the TLB-hitting threads of a *missing*
        warp access the L1 immediately, overlapping cache latency with
        the walk (Section 6.3).
    ideal_latency:
        Waive the CACTI size/port access-time penalty (only the ideal
        comparison point uses this).
    mshr_entries:
        TLB miss status holding registers; one per warp thread (32).
    """

    enabled: bool = True
    entries: int = 128
    associativity: int = 4
    ports: int = 4
    blocking: bool = True
    hit_under_miss: bool = False
    cache_overlap: bool = False
    ideal_latency: bool = False
    mshr_entries: int = 32

    def __post_init__(self):
        if self.enabled:
            if self.entries <= 0:
                raise ValueError(
                    f"TLB entries must be positive, got {self.entries}"
                )
            if self.ports <= 0:
                raise ValueError(f"TLB ports must be positive, got {self.ports}")
            if self.associativity <= 0:
                raise ValueError(
                    f"TLB associativity must be positive, got {self.associativity}"
                )
            if self.entries % self.associativity:
                raise ValueError(
                    f"TLB entries ({self.entries}) must divide into "
                    f"{self.associativity}-way sets"
                )
            if self.mshr_entries < 1:
                raise ValueError(
                    f"TLB needs at least one MSHR entry, got {self.mshr_entries}"
                )
            if self.cache_overlap and self.blocking:
                raise ValueError(
                    "cache_overlap requires a non-blocking TLB "
                    "(set blocking=False, hit_under_miss=True)"
                )


@dataclass(frozen=True)
class PTWConfig:
    """Page table walker arrangement (Sections 6.2-6.3).

    ``count`` serial walkers per core; ``scheduled=True`` replaces them
    with the single coalescing scheduled walker of Figures 8-9
    (mutually exclusive with count > 1).
    """

    count: int = 1
    scheduled: bool = False

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("need at least one walker")
        if self.scheduled and self.count != 1:
            raise ValueError("the scheduled walker design uses a single walker")


@dataclass(frozen=True)
class CacheConfig:
    """L1 and L2 cache geometry.

    L1 parameters are the paper's (32 KB, 128-byte lines).  L2 defaults
    describe the *per-core slice* of the machine: the paper's 30 cores
    share 8 x 128 KB of L2, but its workloads also have ~30x our
    per-core footprint, so each simulated core gets a 1 MB slice —
    preserving the footprint:capacity ratio that determines hit rates.
    """

    l1_bytes: int = 32 * 1024
    line_bytes: int = 128
    l1_associativity: int = 8
    l1_latency: int = 1
    l1_mshr_entries: int = 16
    l2_bytes_per_channel: int = 1024 * 1024
    l2_associativity: int = 8
    l2_latency: int = 12
    l2_service_interval: int = 2

    def __post_init__(self):
        for name in ("l1_bytes", "line_bytes", "l1_associativity",
                     "l2_bytes_per_channel", "l2_associativity"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"cache {name} must be positive, got {getattr(self, name)}"
                )
        if self.l1_mshr_entries < 1:
            raise ValueError(
                f"L1 needs at least one MSHR entry, got {self.l1_mshr_entries}"
            )
        if self.l1_latency < 0 or self.l2_latency < 0:
            raise ValueError("cache latencies must be >= 0")
        if self.l2_service_interval < 1:
            raise ValueError(
                f"l2_service_interval must be >= 1, got {self.l2_service_interval}"
            )


@dataclass(frozen=True)
class DRAMConfig:
    """Memory channels and latencies (per-core slice).

    The paper's 30 cores share 8 channels (~0.27 channels/core); we
    give each simulated core one channel with the service interval
    scaled to match the per-core bandwidth share.
    """

    num_channels: int = 1
    access_latency: int = 350
    service_interval: int = 4
    interconnect_latency: int = 4

    def __post_init__(self):
        if self.num_channels < 1:
            raise ValueError(
                f"need at least one DRAM channel, got {self.num_channels}"
            )
        if self.access_latency < 0 or self.interconnect_latency < 0:
            raise ValueError("DRAM latencies must be >= 0")
        if self.service_interval < 1:
            raise ValueError(
                f"DRAM service_interval must be >= 1, got {self.service_interval}"
            )


@dataclass(frozen=True)
class SchedulerConfig:
    """Warp scheduler selection and CCWS-family tuning knobs.

    ``kind`` is one of:

    - ``"rr"`` — loose round-robin (the GPU default).
    - ``"gto"`` — greedy-then-oldest.
    - ``"ccws"`` — cache-conscious wavefront scheduling with cache-line
      victim tag arrays (Section 7.1).
    - ``"ta-ccws"`` — CCWS whose lost-locality scoring weights cache
      misses that also TLB-missed ``tlb_miss_weight`` times as much
      (Section 7.2, Figure 14).
    - ``"tcws"`` — TLB-conscious warp scheduling: page-grain VTAs fed by
      TLB evictions, plus LRU-depth-weighted score updates on TLB hits
      (Section 7.2, Figure 15).
    """

    kind: str = "rr"
    vta_entries_per_warp: int = 16
    vta_associativity: int = 8
    lls_cutoff: int = 64
    base_score: int = 1
    tlb_miss_weight: int = 4
    lru_hit_weights: Tuple[int, ...] = (1, 2, 4, 8)
    score_halflife: int = 4096
    min_active_warps: int = 8

    _KINDS = ("rr", "gto", "ccws", "ta-ccws", "tcws")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}; one of {self._KINDS}")
        if self.tlb_miss_weight < 1:
            raise ValueError("tlb_miss_weight must be >= 1")
        if not self.lru_hit_weights:
            raise ValueError("lru_hit_weights must be non-empty")


@dataclass(frozen=True)
class TBCConfig:
    """Thread block compaction settings (Section 8).

    ``mode`` is one of:

    - ``"stack"`` — baseline per-warp reconvergence stacks (no
      compaction).
    - ``"tbc"`` — baseline thread block compaction [Fung & Aamodt].
    - ``"tlb-tbc"`` — TLB-aware TBC gated by the Common Page Matrix.
    """

    mode: str = "stack"
    cpm_counter_bits: int = 3
    #: The paper flushes every 500 cycles; our regions span thousands of
    #: cycles (shorter traces, deeper per-access latencies), so the
    #: default scales accordingly.  bench_ablation_cpm_flush.py sweeps it.
    cpm_flush_interval: int = 5000

    _MODES = ("stack", "tbc", "tlb-tbc")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown TBC mode {self.mode!r}; one of {self._MODES}")
        if not 1 <= self.cpm_counter_bits <= 8:
            raise ValueError("CPM counters are 1-8 bits")
        if self.cpm_flush_interval <= 0:
            raise ValueError("CPM flush interval must be positive")


@dataclass(frozen=True)
class TraceConfig:
    """Observability settings (the :mod:`repro.obs` subsystem).

    Attributes
    ----------
    enabled:
        Master switch.  When False (the default) the simulator installs
        no tracer and every instrumentation site costs one boolean
        check; simulated results are byte-identical either way.
    ring_capacity:
        Events retained by the in-memory ring buffer (0 disables it;
        the ring feeds the post-hoc histograms in
        :mod:`repro.stats.histograms`).
    jsonl_path:
        Stream every event as JSON Lines to this file (None disables).
    chrome_path:
        Write a Perfetto-loadable Chrome trace-event JSON here on run
        completion (None disables).
    interval_cycles:
        Period of the :class:`repro.obs.interval.IntervalSampler`
        CoreStats-delta time series (0 disables sampling).
    """

    enabled: bool = False
    ring_capacity: int = 1 << 16
    jsonl_path: Optional[str] = None
    chrome_path: Optional[str] = None
    interval_cycles: int = 0

    def __post_init__(self):
        if self.ring_capacity < 0:
            raise ValueError("ring_capacity must be >= 0")
        if self.interval_cycles < 0:
            raise ValueError("interval_cycles must be >= 0")


@dataclass(frozen=True)
class GPUConfig:
    """Complete machine description."""

    num_cores: int = 1
    warps_per_core: int = 48
    warp_width: int = 32
    page_shift: int = PAGE_SHIFT_4K
    #: Warp instructions per warp excluded from measurement (structures
    #: stay warm; the clock and every counter restart once the core has
    #: issued ``warmup_instructions * warps`` instructions).  Standard
    #: steady-state methodology: compulsory TLB/cache misses of our
    #: short traces would otherwise be over-weighted relative to the
    #: paper's billions-of-instructions runs.
    warmup_instructions: int = 0
    tlb: TLBConfig = field(default_factory=TLBConfig)
    ptw: PTWConfig = field(default_factory=PTWConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    tbc: TBCConfig = field(default_factory=TBCConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Issue-loop strategy (:mod:`repro.engines`): ``"event"`` (default,
    #: fast path) or ``"cycle"`` (the reference loop).  Both produce
    #: byte-identical results; the field still participates in the
    #: config hash so cached sweep cells record which core produced
    #: them.  ``describe()`` omits it deliberately — descriptions label
    #: *machine* design points and both engines simulate the same
    #: machine.
    engine: str = "event"

    def __post_init__(self):
        if self.num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {self.num_cores}")
        if self.warps_per_core <= 0:
            raise ValueError(
                f"warps_per_core must be positive, got {self.warps_per_core}"
            )
        if self.warp_width <= 0:
            raise ValueError(f"warp_width must be positive, got {self.warp_width}")
        if self.warmup_instructions < 0:
            raise ValueError(
                f"warmup_instructions must be >= 0, got {self.warmup_instructions}"
            )
        if self.page_shift not in (PAGE_SHIFT_4K, PAGE_SHIFT_2M):
            raise ValueError("page_shift must be 12 (4 KB) or 21 (2 MB)")
        from repro.engines import available_engines

        if self.engine not in available_engines():
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"one of {sorted(available_engines())}"
            )

    def with_(self, **kwargs) -> "GPUConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def preset(cls, name: str, **overrides) -> "GPUConfig":
        """Build one of the paper's named design points.

        ``name`` is a key of :data:`repro.core.presets.PRESETS`
        (``"no_tlb"``, ``"blocking"``, ``"augmented"``, ``"ideal"``, ...);
        ``overrides`` pass through to the underlying factory, so e.g.
        ``GPUConfig.preset("no_tlb", warmup_instructions=20)`` works.
        Figure drivers and user code build configs the same one way.
        """
        from repro.core import presets as _presets

        return _presets.preset(name, **overrides)

    def canonical_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form (the input to :func:`config_hash`)."""
        return dataclasses.asdict(self)

    def stable_hash(self) -> str:
        """Content hash of this machine description.

        Invariant under dataclass field reordering (keys are sorted
        before hashing); two configs hash equal iff every field of every
        nested config is equal.  Used for cell keys
        (:func:`repro.parallel.cells.key_of`) and the content-addressed
        sweep result cache.
        """
        return config_hash(self)

    def describe(self) -> str:
        """One-line human-readable summary for bench output."""
        if not self.tlb.enabled:
            mmu = "no-TLB"
        else:
            bits = [f"{self.tlb.entries}e/{self.tlb.ports}p"]
            if self.tlb.ideal_latency:
                bits.append("ideal")
            if self.tlb.cache_overlap:
                bits.append("overlap")
            elif self.tlb.hit_under_miss:
                bits.append("HuM")
            elif self.tlb.blocking:
                bits.append("blocking")
            if self.ptw.scheduled:
                bits.append("ptw-sched")
            elif self.ptw.count > 1:
                bits.append(f"{self.ptw.count}ptw")
            mmu = "TLB " + "+".join(bits)
        parts = [mmu, f"sched={self.scheduler.kind}"]
        if self.tbc.mode != "stack":
            parts.append(f"tbc={self.tbc.mode}")
        if self.page_shift == PAGE_SHIFT_2M:
            parts.append("2MB-pages")
        if self.faults.enabled:
            bits = []
            if self.faults.demand_paging:
                bits.append("paging")
            if self.faults.injection_active:
                bits.append("inject")
            label = "faults:" + "+".join(bits) if bits else "faults"
            # The seed is part of the experiment's identity: same seed,
            # same fault sites.
            parts.append(f"{label}@{self.faults.seed}")
        return ", ".join(parts)
