"""Workload specification and the synthetic trace generators.

A :class:`WorkloadSpec` captures the trace statistics a benchmark must
exhibit; :class:`Workload` turns a spec into concrete per-core work in
two forms:

- **linear** — one full instruction trace per warp slot (used by every
  non-TBC experiment);
- **blocks** — thread blocks of branch-divergence regions (used by the
  TBC experiments, where warps re-form at region boundaries).

Address-stream structure
------------------------
Each warp owns a small *static* private working set it re-references
randomly (per-warp locality), and all warps of a core share a Zipf-hot
pool (graph neighbourhoods, cluster centroids, memcached hot keys) plus
an optional cold tail (compulsory-miss traffic).  The total *active*
page set per core — ``48 × private_pages + hot_pool_pages`` — is the
designed quantity: placed between 128 and 512 pages it makes a
128-entry TLB thrash at the paper's Figure 3 rates while the paper's
"ideal" 512-entry TLB still fits, which is exactly the regime every
evaluation figure depends on.

Every memory instruction draws a *page divergence* (distinct pages its
32 lanes touch, Figure 3 right) from a clipped geometric distribution;
the first page is private, the rest come from the shared pool with
probability ``shared_fraction`` (far-flung lanes) or from the private
set otherwise.  Lanes split into contiguous groups per page and touch
``lines_per_page`` fixed cache lines within it, giving the intra-warp
L1 reuse CCWS recovers.

In block form, page sets belong to *warp pairs* (warps 2j and 2j+1
share), so some cross-warp compactions are harmless while most are not —
the structure the Common Page Matrix learns (Section 8.2).

Shared page rows
----------------
A lane's address depends only on its page and its lane index.  Each
build therefore computes one *row* per ``(page, is_private)`` — every
lane's address on that page — when an instruction first touches the
page, and every later lane group and instruction slices that row.  A
row holds only ``min(lines, width)`` distinct int objects, a
single-page instruction's ``addresses`` is the row itself, and in block
form the two warps of a pair share one address tuple per lane.
Memoized traces live as long as the process, so what they hold scales
with the distinct addresses rather than with lanes × instructions, and
each page's address formula runs once per build rather than once per
lane.  ``tests/workloads/test_trace_golden.py`` pins the traces' values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Dict, List, Optional, Tuple

from repro.core.config import GPUConfig
from repro.gpu.instruction import (
    MemoryInstruction,
    WarpTrace,
    compute_instruction,
)
from repro.gpu.tbc.blocks import Region, ThreadBlock
from repro.prof import profiler as _prof
from repro.vm.address import PAGE_SIZE_4K

#: Cold-stream scale used by the *timing* experiments.  The spec's
#: ``cold_fraction`` is calibrated to the paper's Figure 3 miss rates,
#: which characterize >1 GB footprints over billions of instructions.
#: Replaying misses at that absolute rate into an explicit serial page
#: table walker oversubscribes it roughly tenfold at GPGPU-Sim-like
#: memory-instruction densities — the paper's own performance results
#: (5-15 % overheads with one walker per core) imply its timed runs
#: operated well below those characterization rates.  Timing-mode
#: streams therefore scale the cold stream down by this factor; the
#: workload characterization benches (Figures 3 and 4's rate axis) use
#: the unscaled stream.  See EXPERIMENTS.md for the full analysis.
TIMING_MISS_SCALE = 1.0 / 6.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Target trace statistics for one benchmark.

    Attributes
    ----------
    name / description:
        Identification.
    instructions_per_warp:
        Warp instructions per warp trace (linear form).
    compute_latency:
        Scalar instructions folded into each compute template; sets the
        memory-instruction fraction at ``1 / (compute_latency + 1)``.
    private_pages:
        Static per-warp working set, in 4 KB pages.
    lines_per_page:
        Distinct cache lines a warp touches per *private* page — the
        intra-warp L1 working set CCWS recovers.
    shared_lines_per_page:
        Distinct lines touched per shared/cold page (gathers touch few
        lines of many far-flung pages).
    hot_pool_pages / shared_fraction:
        Per-core shared hot pool size and the probability a divergent
        lane group reads from it.
    cold_fraction / cold_pages:
        Probability a page pick instead goes to a near-compulsory-miss
        cold region, and that region's size.
    cold_stride_pages:
        Spacing between cold pages.  1 packs them densely; 512 puts
        every cold page in its own 2 MB region, modelling the far-flung
        footprints that keep bfs/mummergpu divergent even under large
        pages (Section 9).
    page_div_mean / page_div_max:
        Page divergence distribution targets (Figure 3 right).
    zipf_alpha:
        Skew of hot-pool page popularity.
    block_warps / regions_per_block / divergent_region_fraction:
        Block form: warps per thread block, regions per block, and the
        fraction of regions with a two-path divergent branch.
    region_mems:
        Memory instructions per region path (block form).
    seed:
        Base RNG seed; core index and form are folded in.
    """

    name: str
    description: str = ""
    instructions_per_warp: int = 80
    compute_latency: int = 6
    private_pages: int = 4
    lines_per_page: int = 4
    shared_lines_per_page: int = 4
    hot_pool_pages: int = 128
    shared_fraction: float = 0.5
    cold_fraction: float = 0.0
    cold_pages: int = 65536
    cold_stride_pages: int = 1
    page_div_mean: float = 2.0
    page_div_max: int = 16
    zipf_alpha: float = 1.2
    block_warps: int = 8
    regions_per_block: int = 6
    divergent_region_fraction: float = 0.6
    region_mems: int = 4
    seed: int = 1234


class Workload:
    """A runnable synthetic workload built from a spec."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.spec.name

    # ------------------------------------------------------------------
    # Shared address machinery
    # ------------------------------------------------------------------

    def _warp_pages(self, core: int, warp: int, num_warps: int) -> List[int]:
        """The private page set of a warp (disjoint across warps/cores).

        Each warp's pages are contiguous (a realistic data-structure
        slice) inside a disjoint 128-page slot, with a hashed sub-slot
        offset: aligned slots would make ``vpn % sets`` identical for
        every warp, aliasing all working sets into the same few
        TLB/cache sets.
        """
        index = core * num_warps + warp + 1
        jitter = ((index * 2654435761) >> 7) % 96
        base = index * 128 + jitter
        return [base + i for i in range(self.spec.private_pages)]

    def _pair_pages(self, core: int, warp: int, num_warps: int) -> List[int]:
        """Block form: warps 2j and 2j+1 share one page set."""
        return self._warp_pages(core, warp - (warp % 2), num_warps)

    def _hot_pool(self, core: int) -> List[int]:
        # Above the private slots (which stay below 2^24 pages), so the
        # pool never collides with any warp's pages.
        base = (1 << 30) + core * (1 << 26)
        return [base + i for i in range(self.spec.hot_pool_pages)]

    def _cold_base(self, core: int) -> int:
        return (1 << 31) + core * (1 << 26)

    def _zipf_index(self, rng: random.Random, n: int) -> int:
        """Approximate Zipf(alpha) sample over 0..n-1 via inversion.

        For alpha > 1 the rank follows the standard inverse-power
        transform rank ~ (1-u)^(-1/(alpha-1)); alpha <= 1 degenerates to
        uniform.  A draw so close to 1 that the power overflows a float
        saturates at the last rank, as every draw past ``n`` does.
        """
        alpha = self.spec.zipf_alpha
        u = rng.random()
        if alpha <= 1.0:
            return min(int(u * n), n - 1)
        try:
            rank = int((1.0 - u) ** (-1.0 / (alpha - 1.0))) - 1
        except OverflowError:
            return n - 1
        return min(max(rank, 0), n - 1)

    def _sample_divergence(self, rng: random.Random, width: int) -> int:
        """Draw a page divergence with the spec's mean and max."""
        spec = self.spec
        cap = min(spec.page_div_max, width)
        if spec.page_div_mean <= 1.0:
            return 1
        # Geometric-like: P(d) decays so that the mean lands near target.
        p = 1.0 / spec.page_div_mean
        d = 1
        while d < cap and rng.random() > p:
            d += 1
        # Occasional full-divergence spike so the max matches the paper.
        if rng.random() < 0.01:
            d = cap
        return d

    def _pick_pages(
        self,
        rng: random.Random,
        divergence: int,
        private: List[int],
        hot_pool: List[int],
        cold_base: int,
        cold_fraction: float,
    ) -> List[Tuple[int, bool]]:
        """The pages one memory instruction touches, as (page, is_private).

        Every pick rolls independently for the cold region, so the
        workload's TLB miss rate is a *designed*, order-independent
        property (≈ ``cold_fraction``): the resident working set
        (private + hot pool) fits a 128-entry TLB while the cold stream
        misses any capacity.  Pure capacity churn at the paper's
        22-70 % rates is feedback-unstable at simulatable scale —
        eviction rate then tracks walk completion rate, so a *slower*
        walker spuriously improves hit rates; the calibrated cold
        stream keeps miss rates faithful to Figure 3 without that
        artifact.
        """
        spec = self.spec
        chosen: List[Tuple[int, bool]] = []
        for slot in range(divergence):
            if rng.random() < cold_fraction:
                offset = rng.randrange(spec.cold_pages) * spec.cold_stride_pages
                chosen.append((cold_base + offset, False))
                continue
            if slot == 0:
                chosen.append((private[rng.randrange(len(private))], True))
            elif rng.random() < spec.shared_fraction and hot_pool:
                chosen.append(
                    (hot_pool[self._zipf_index(rng, len(hot_pool))], False)
                )
            else:
                chosen.append((private[rng.randrange(len(private))], True))
        return chosen

    def _page_row(
        self, page: int, is_private: bool, width: int
    ) -> Tuple[int, ...]:
        """Every lane's address on one page, lanes ``0 .. width - 1``.

        Lane ``i`` reads the page's fixed line ``i % lines``, rotated by
        page number so L1 and L2 sets are used uniformly.  Only the
        ``min(lines, width)`` distinct addresses are built; the lanes
        that repeat a line hold the same int object.
        """
        spec = self.spec
        lines = spec.lines_per_page if is_private else spec.shared_lines_per_page
        line_stride = PAGE_SIZE_4K // max(1, lines)
        base = page * PAGE_SIZE_4K
        rotation = (page % 32) * 128
        distinct = [
            base + (line * line_stride + rotation) % PAGE_SIZE_4K
            for line in range(min(lines, width))
        ]
        return tuple(islice(cycle(distinct), width))

    def _lane_addresses(
        self,
        chosen: List[Tuple[int, bool]],
        width: int,
        rows: Dict[Tuple[int, bool], Tuple[int, ...]],
    ) -> Tuple[int, ...]:
        """Spread lanes over the chosen pages, fixed lines per page.

        Lanes split into contiguous groups of ``width // len(chosen)``,
        the last page taking the rest; each group reads its own lanes of
        its page's row.  ``rows`` holds one build's rows, keyed by
        ``(page, is_private)``, and fills on first use.
        """
        count = len(chosen)
        group = max(1, width // count)
        addresses: List[int] = []
        for index in range(min(count, width)):
            pick = chosen[index]
            row = rows.get(pick)
            if row is None:
                row = rows[pick] = self._page_row(pick[0], pick[1], width)
            if count == 1:
                return row
            start = index * group
            stop = width if index == count - 1 else start + group
            addresses += row[start:stop]
        return tuple(addresses)

    # ------------------------------------------------------------------
    # Linear form
    # ------------------------------------------------------------------

    def build_linear(
        self, config: GPUConfig, miss_scale: float = 1.0
    ) -> List[List[WarpTrace]]:
        """Per-core lists of warp traces (one trace per warp slot).

        ``miss_scale`` scales the calibrated cold-stream rate; timing
        experiments pass :data:`TIMING_MISS_SCALE`.
        """
        spec = self.spec
        cold_fraction = spec.cold_fraction * miss_scale
        per_core: List[List[WarpTrace]] = []
        for core in range(config.num_cores):
            rng = random.Random(f"{spec.seed}-linear-{core}")
            hot_pool = self._hot_pool(core)
            cold_base = self._cold_base(core)
            rows: Dict[Tuple[int, bool], Tuple[int, ...]] = {}
            traces: List[WarpTrace] = []
            for warp in range(config.warps_per_core):
                private = self._warp_pages(core, warp, config.warps_per_core)
                instructions = []
                count = spec.instructions_per_warp
                # Distinct base cadences keep warps drifting apart over
                # the whole run instead of re-synchronizing.
                base_latency = max(1, spec.compute_latency + (warp % 3) - 1)
                while len(instructions) < count:
                    # ~25% latency jitter keeps warps from staying phase
                    # locked (real compute phases are not identical);
                    # lockstep warps otherwise convoy at the L2 banks.
                    if base_latency > 1:
                        spread = max(1, base_latency // 4)
                        jitter = rng.randint(-spread, spread)
                    else:
                        jitter = 0
                    instructions.append(
                        compute_instruction(max(1, base_latency + jitter))
                    )
                    if len(instructions) >= count:
                        break
                    divergence = self._sample_divergence(rng, config.warp_width)
                    chosen = self._pick_pages(
                        rng, divergence, private, hot_pool, cold_base,
                        cold_fraction,
                    )
                    instructions.append(
                        MemoryInstruction(
                            addresses=self._lane_addresses(
                                chosen, config.warp_width, rows
                            )
                        )
                    )
                traces.append(WarpTrace(warp_id=warp, instructions=instructions))
            per_core.append(traces)
        return per_core

    # ------------------------------------------------------------------
    # Block form (TBC)
    # ------------------------------------------------------------------

    def _region(
        self,
        rng: random.Random,
        block_threads: int,
        warp_width: int,
        core: int,
        block_warp_base: int,
        total_core_warps: int,
        hot_pool: List[int],
        region_index: int,
        divergent: bool,
        cold_base: int,
        cold_fraction: float,
        rows: Dict[Tuple[int, bool], Tuple[int, ...]],
    ) -> Region:
        spec = self.spec
        # Two compute templates per memory access keep divergent regions
        # partly issue-bound — the regime where compaction's SIMD
        # utilization gains (fewer warp fetches) pay off.
        program: Tuple = tuple(
            template
            for _ in range(spec.region_mems)
            for template in (
                ("c", spec.compute_latency),
                ("c", spec.compute_latency),
                ("m",),
            )
        )
        if divergent:
            path_programs = {0: program, 1: program}
            thread_paths = tuple(
                rng.randint(0, 1) for _ in range(block_threads)
            )
        else:
            path_programs = {0: program}
            thread_paths = tuple(0 for _ in range(block_threads))
        num_pairs = (block_threads // warp_width + 1) // 2
        # Page picks are coherent per *warp pair* and per access: every
        # thread of a pair reads from the same small page group, spread
        # over lane groups exactly like the linear form.  Static warps
        # therefore show Figure 3-like page divergence, while dynamic
        # warps that mix unrelated pairs see the union of their picks —
        # the divergence amplification of Section 8.1.  Pairs share page
        # sets, so pair-internal compaction is free: the structure the
        # Common Page Matrix learns.
        pair_lanes: List[List[Tuple[int, ...]]] = []
        for pair in range(num_pairs):
            pages = self._pair_pages(
                core, block_warp_base + pair * 2, total_core_warps
            )
            vectors = []
            for _ in range(spec.region_mems):
                divergence = max(
                    1, self._sample_divergence(rng, warp_width) // 2
                )
                chosen = self._pick_pages(
                    rng, divergence, pages, hot_pool, cold_base,
                    cold_fraction,
                )
                vectors.append(self._lane_addresses(chosen, warp_width, rows))
            # One tuple per lane across the region's accesses, read by
            # both warps of the pair.  zip() of no vectors is empty, so a
            # region without accesses gives every lane () explicitly.
            pair_lanes.append(
                list(zip(*vectors)) if vectors else [()] * warp_width
            )
        thread_addresses: Dict[int, Tuple[int, ...]] = {
            tid: pair_lanes[tid // warp_width // 2][tid % warp_width]
            for tid in range(block_threads)
        }
        return Region(
            path_programs=path_programs,
            thread_paths=thread_paths,
            thread_addresses=thread_addresses,
        )

    def build_blocks(
        self, config: GPUConfig, miss_scale: float = 1.0
    ) -> List[List[ThreadBlock]]:
        """Per-core lists of thread blocks (TBC experiments)."""
        spec = self.spec
        cold_fraction = spec.cold_fraction * miss_scale
        blocks_per_core = config.warps_per_core // spec.block_warps
        if blocks_per_core == 0:
            raise ValueError(
                f"core has {config.warps_per_core} warp slots; blocks need "
                f"{spec.block_warps}"
            )
        per_core: List[List[ThreadBlock]] = []
        block_threads = spec.block_warps * config.warp_width
        for core in range(config.num_cores):
            rng = random.Random(f"{spec.seed}-blocks-{core}")
            hot_pool = self._hot_pool(core)
            cold_base = self._cold_base(core)
            rows: Dict[Tuple[int, bool], Tuple[int, ...]] = {}
            blocks: List[ThreadBlock] = []
            for b in range(blocks_per_core):
                block_warp_base = b * spec.block_warps
                regions = []
                for r in range(spec.regions_per_block):
                    divergent = rng.random() < spec.divergent_region_fraction
                    regions.append(
                        self._region(
                            rng,
                            block_threads,
                            config.warp_width,
                            core,
                            block_warp_base,
                            config.warps_per_core,
                            hot_pool,
                            r,
                            divergent,
                            cold_base,
                            cold_fraction,
                            rows,
                        )
                    )
                blocks.append(
                    ThreadBlock(
                        block_id=core * blocks_per_core + b,
                        num_warps=spec.block_warps,
                        warp_width=config.warp_width,
                        regions=regions,
                    )
                )
            per_core.append(blocks)
        return per_core

    def build(
        self,
        config: GPUConfig,
        form: Optional[str] = None,
        miss_scale: float = 1.0,
    ):
        """Build per-core work; form defaults to what the config implies.

        Builds are memoized process-wide: generation is pure in the spec
        and the geometry fields consumed here (seeded RNGs, no global
        state), and the returned traces/blocks are immutable once built
        — the simulator wraps them in per-run Warp state and never
        writes through them.  Sweeps over non-geometry knobs (TLB sizes,
        scheduler policies, ...) therefore rebuild nothing.
        """
        if form is None:
            form = "blocks" if config.tbc.mode != "stack" else "linear"
        if form not in ("linear", "blocks"):
            raise ValueError(f"unknown workload form {form!r}")
        key = (
            self.spec,
            form,
            miss_scale,
            config.num_cores,
            config.warps_per_core,
            config.warp_width,
        )
        cached = _BUILD_CACHE.get(key)
        if cached is not None:
            return cached
        with _prof.phase(_prof.PHASE_BUILD):
            if form == "linear":
                built = self.build_linear(config, miss_scale=miss_scale)
            else:
                built = self.build_blocks(config, miss_scale=miss_scale)
        if len(_BUILD_CACHE) >= _BUILD_CACHE_LIMIT:
            _BUILD_CACHE.clear()
        _BUILD_CACHE[key] = built
        return built


#: Memoized Workload.build results keyed by (spec, form, miss_scale,
#: geometry).  Per process; sweep workers each warm their own.
_BUILD_CACHE: Dict[tuple, object] = {}

#: Entry cap; a sweep holds about a dozen builds, but a long-lived
#: server builds one per distinct request geometry and ``miss_scale``,
#: and must not grow without bound.  Eviction is a full clear.
_BUILD_CACHE_LIMIT = 64
