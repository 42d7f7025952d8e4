"""PhaseProfiler: nesting, self-time attribution, error unwinding."""

from __future__ import annotations

import pytest

from repro.prof import profiler as prof
from repro.prof.profiler import PhaseProfiler


class FakeClock:
    """Deterministic nanosecond clock advanced by the test."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def profiler(clock):
    return PhaseProfiler(clock=clock)


class TestAttribution:
    def test_flat_phase_accumulates_calls_and_time(self, profiler, clock):
        for _ in range(3):
            profiler.begin("tlb_lookup")
            clock.advance(10)
            profiler.end()
        record = profiler.records["tlb_lookup"]
        assert record.calls == 3
        assert record.total_ns == 30
        assert record.self_ns == 30

    def test_nested_child_time_subtracts_from_parent_self(
        self, profiler, clock
    ):
        profiler.begin("simulate")
        clock.advance(5)
        profiler.begin("ptw_walk")
        clock.advance(20)
        profiler.end()
        clock.advance(5)
        profiler.end()
        outer = profiler.records["simulate"]
        inner = profiler.records["ptw_walk"]
        assert outer.total_ns == 30
        assert outer.self_ns == 10
        assert inner.total_ns == 20
        assert inner.self_ns == 20

    def test_self_times_partition_wall_time(self, profiler, clock):
        profiler.begin("simulate")
        clock.advance(3)
        profiler.begin("cache_l1")
        clock.advance(7)
        profiler.begin("dram")
        clock.advance(11)
        profiler.end()
        clock.advance(2)
        profiler.end()
        clock.advance(1)
        profiler.end()
        assert profiler.total_profiled_ns() == 24
        assert profiler.records["simulate"].total_ns == 24

    def test_end_through_unwinds_abandoned_frames(self, profiler, clock):
        profiler.begin("simulate")
        clock.advance(1)
        profiler.begin("ptw_walk")
        clock.advance(2)
        profiler.begin("dram")
        clock.advance(3)
        # Simulated error: nobody ends dram/ptw_walk; the simulator's
        # finally block unwinds through the marker frame.
        profiler.end_through("simulate")
        assert profiler.depth == 0
        assert profiler.records["dram"].calls == 1
        assert profiler.records["ptw_walk"].calls == 1
        assert profiler.records["simulate"].calls == 1

    def test_end_through_is_noop_on_empty_stack(self, profiler):
        profiler.end_through("simulate")
        assert profiler.depth == 0
        assert profiler.records == {}

    def test_counts_tally(self, profiler):
        profiler.add("cells")
        profiler.add("sim_cycles", 100)
        profiler.add("sim_cycles", 50)
        assert profiler.counts == {"cells": 1, "sim_cycles": 150}

    def test_to_dict_shape(self, profiler, clock):
        profiler.begin("tlb_lookup")
        clock.advance(1_000_000)
        profiler.end()
        profiler.add("cells")
        snapshot = profiler.to_dict()
        assert snapshot["counts"] == {"cells": 1}
        record = snapshot["phases"]["tlb_lookup"]
        assert record["calls"] == 1
        assert record["self_s"] == pytest.approx(0.001)
        assert record["total_s"] == pytest.approx(0.001)


class TestModuleFlag:
    def test_disabled_by_default(self):
        assert prof.ENABLED is False
        assert prof.active() is None

    def test_install_uninstall_toggle_flag(self, profiler):
        prof.install(profiler)
        try:
            assert prof.ENABLED is True
            assert prof.active() is profiler
        finally:
            prof.uninstall()
        assert prof.ENABLED is False
        assert prof.active() is None

    def test_profile_context_restores_previous(self, profiler):
        prof.install(profiler)
        try:
            with prof.profile() as inner:
                assert prof.active() is inner
                assert inner is not profiler
            assert prof.active() is profiler
        finally:
            prof.uninstall()

    def test_profile_context_uninstalls_on_exception(self):
        with pytest.raises(RuntimeError):
            with prof.profile():
                raise RuntimeError("boom")
        assert prof.ENABLED is False

    def test_phase_context_noop_when_disabled(self):
        with prof.phase("analysis"):
            pass  # must not raise despite no active profiler

    def test_phase_context_records_when_enabled(self, profiler, clock):
        with prof.profile(profiler):
            with prof.phase("analysis"):
                clock.advance(5)
        assert profiler.records["analysis"].calls == 1

    def test_profiled_decorator(self, profiler, clock):
        @prof.profiled("analysis")
        def work():
            clock.advance(7)
            return 42

        assert work() == 42  # disabled: plain call
        with prof.profile(profiler):
            assert work() == 42
        assert profiler.records["analysis"].calls == 1
        assert profiler.records["analysis"].total_ns == 7


class TestEventSkipPhase:
    """The event engine's dead-time bookkeeping is a real profiled
    phase: sparse workloads accumulate it, and it nests under the
    simulate frame without breaking the self-time partition."""

    def _profiled_run(self, compute_latency=12):
        from repro.api import simulate

        from helpers import small_config, small_workload

        profiler = PhaseProfiler()
        with prof.profile(profiler):
            simulate(
                config=small_config(),
                workload=small_workload(compute_latency=compute_latency),
                engine="event",
            )
        return profiler

    def test_sparse_workload_accumulates_event_skip(self):
        profiler = self._profiled_run()
        record = profiler.records[prof.PHASE_EVENT_SKIP]
        assert record.calls > 0
        assert record.self_ns > 0

    def test_event_skip_self_time_still_tiles_wall_time(self):
        profiler = self._profiled_run()
        assert profiler.depth == 0  # every frame closed
        simulate_record = profiler.records[prof.PHASE_SIMULATE]
        # The simulate frame is the sole root, so the per-phase
        # self-times must partition its span exactly — event_skip
        # included, double counting nothing.
        assert profiler.total_profiled_ns() == simulate_record.total_ns
        assert (
            0
            < profiler.records[prof.PHASE_EVENT_SKIP].self_ns
            < simulate_record.total_ns
        )

    def test_event_engine_attributes_coalescing(self):
        """The batched coalescing precompute is its own phase, not
        ``simulate`` self-time, and profiling it changes nothing."""
        from repro.api import simulate

        from helpers import small_config, small_workload

        def run():
            return simulate(
                config=small_config(),
                workload=small_workload(compute_latency=12),
                engine="event",
            ).canonical_json()

        plain = run()
        profiler = PhaseProfiler()
        with prof.profile(profiler):
            profiled = run()
        assert profiled == plain
        assert profiler.records[prof.PHASE_COALESCE].calls > 0
        assert profiler.depth == 0
        simulate_record = profiler.records[prof.PHASE_SIMULATE]
        assert profiler.total_profiled_ns() == simulate_record.total_ns

    def test_cycle_engine_never_records_event_skip(self):
        from repro.api import simulate

        from helpers import small_config, small_workload

        profiler = PhaseProfiler()
        with prof.profile(profiler):
            simulate(
                config=small_config(),
                workload=small_workload(compute_latency=12),
                engine="cycle",
            )
        assert prof.PHASE_EVENT_SKIP not in profiler.records
