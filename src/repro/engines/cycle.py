"""The cycle-driven reference engine.

This is the shader core's original issue loop, verbatim: one warp
instruction per cycle when any warp is ready, clock jumps to the next
warp-ready event otherwise, full per-iteration instrumentation
(tracing, spans, interval sampling, profiling).  It is the oracle the
event engine is differenced against — ``tests/engines`` asserts the
two produce byte-identical results *and* identical observer output
(trace streams, span decompositions, interval samples), so it is never
silently substituted for the event engine; selecting it is always an
explicit choice.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.gpu.instruction import ComputeInstruction, MemoryInstruction
from repro.gpu.scheduler.base import Candidate
from repro.gpu.warp import Warp
from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof

from repro.engines.base import SimEngine


class CycleEngine(SimEngine):
    """Faithful cycle-driven issue loop (the reference oracle)."""

    name = "cycle"

    def run(self, poll=None) -> int:
        """See :meth:`repro.engines.base.SimEngine.run`.

        Raises :class:`repro.faults.errors.SimulationHang` when the
        forward-progress watchdog detects no instruction retired for
        the configured window.
        """
        core = self.core
        watchdog = core._watchdog
        blocking = core.config.tlb.enabled and core.config.tlb.blocking
        warmup_budget = core._warmup_budget
        now = 0
        finish = 0
        issued_total = 0
        measuring = warmup_budget == 0
        while True:
            if poll is not None:
                poll()
            if _trace.ENABLED:
                _trace.CORE = core.core_id
                _trace.NOW = now
            if core.sampler is not None:
                core.sampler.maybe_sample(now, core.stats)
            live = [w for w in core.warps if not w.done]
            if not live:
                break
            candidates: List[Tuple[Warp, Candidate]] = []
            blocked_only = True
            for warp in live:
                if warp.ready_at > now:
                    continue
                instr = warp.current_instruction()
                is_mem = isinstance(instr, MemoryInstruction)
                if is_mem and blocking and now < core.tlb_blocked_until:
                    continue  # blocking TLB: memory warps cannot proceed
                blocked_only = False
                candidates.append((warp, Candidate(warp.warp_id, is_mem)))
            if not candidates:
                if watchdog is not None:
                    watchdog.check(now, core._hang_diagnostics)
                waits = [w.ready_at for w in live if w.ready_at > now]
                if blocking and core.tlb_blocked_until > now:
                    waits.append(core.tlb_blocked_until)
                next_event = min(waits) if waits else now + 1
                tlb_blocked = (
                    blocking and blocked_only and core.tlb_blocked_until > now
                )
                if tlb_blocked:
                    core.stats.tlb_blocked_wait_cycles += (
                        min(next_event, core.tlb_blocked_until) - now
                    )
                core.stats.idle_cycles += next_event - now
                if _trace.ENABLED:
                    core._stall_seq += 1
                    _trace.emit(
                        _ev.WARP_STALL_BEGIN,
                        cycle=now,
                        id=core._stall_seq,
                        reason="tlb_blocked" if tlb_blocked else "memory",
                        live=len(live),
                    )
                    _trace.emit(
                        _ev.WARP_STALL_END, cycle=next_event, id=core._stall_seq
                    )
                now = next_event
                continue
            inflight = any(w.ready_at > now for w in live)
            if _prof.ENABLED:
                _prof.begin(_prof.PHASE_WARP_SCHED)
            chosen_id = core.scheduler.select(
                [c for _, c in candidates], now, inflight
            )
            if _prof.ENABLED:
                _prof.end()
            if _trace.ENABLED:
                _trace.emit(
                    _ev.SCHEDULER_DECISION,
                    cycle=now,
                    track="sched",
                    policy=core.config.scheduler.kind,
                    chosen=chosen_id,
                    candidates=len(candidates),
                )
            if chosen_id is None:
                if watchdog is not None:
                    watchdog.check(now, core._hang_diagnostics)
                waits = [w.ready_at for w in live if w.ready_at > now]
                next_event = min(waits) if waits else now + 1
                core.stats.idle_cycles += next_event - now
                if _trace.ENABLED:
                    core._stall_seq += 1
                    _trace.emit(
                        _ev.WARP_STALL_BEGIN,
                        cycle=now,
                        id=core._stall_seq,
                        reason="throttled",
                        live=len(live),
                    )
                    _trace.emit(
                        _ev.WARP_STALL_END, cycle=next_event, id=core._stall_seq
                    )
                now = next_event
                continue
            warp = next(w for w, c in candidates if c.warp_id == chosen_id)
            instr = warp.current_instruction()
            if isinstance(instr, ComputeInstruction):
                # A compute template folds `latency` scalar instructions;
                # they occupy the single issue port back to back, so the
                # clock advances by the full latency (issue bandwidth is
                # the compute-phase bottleneck with 48 resident warps).
                warp.ready_at = now + instr.latency
                core.stats.scalar_instructions += instr.latency
                advance = instr.latency
            else:
                warp.ready_at = core._issue_memory(warp, instr, now)
                core.stats.memory_instructions += 1
                core.stats.scalar_instructions += 1
                advance = 1
            core.stats.instructions += 1
            if watchdog is not None:
                watchdog.last_progress = now
            warp.issued += 1
            warp.pc += 1
            finish = max(finish, warp.ready_at)
            if warp.done:
                core._warp_retired(warp, now)
            now += advance
            issued_total += 1
            if not measuring and issued_total >= warmup_budget:
                measuring = True
                core._begin_measurement(now)
        return max(now, finish)
