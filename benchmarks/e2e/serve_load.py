"""The ``serve-open-loop`` workload.

A real ``python -m repro.serve`` daemon (two executor slots, fresh
journal and result cache) driven by a single-threaded generator over one
keep-alive connection:

- phase A, an open loop: ``simulate`` jobs at a fixed rate, every third
  one a repeat of an earlier request (a dedupe hit), each timed from
  the moment it was *due*, so a stalled generator or daemon charges its
  stall to every request queued behind it;
- phase B, a closed loop keeping four fresh jobs outstanding, enough to
  keep both executor slots busy through each job's admission and
  delivery: capacity.

Every unfinished job is polled once every 20 ms.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import cells
from common import (
    GATE_CELLS,
    HostSpeed,
    Outcome,
    Plan,
    Spans,
    available_cpus,
    canonical,
    compare,
    end_to_end,
    fingerprint,
    median,
    percentile,
    pinned,
    prometheus_sum,
    put,
    read_jsonl,
    sampling,
    scale_times,
)
from fleet import Fleet, reference

#: Phase A arrival rate.  With a third of requests deduped, the fresh
#: jobs keep the daemon about half busy on a 2-core host.
RATE_PER_S = 4.0
REPEAT_EVERY = 3
PHASE_A_SHARE = 0.7
OUTSTANDING_B = 4
POLL_S = 0.02
#: A job not terminal after this long counts as timed out.
JOB_TIMEOUT_S = 60.0
#: Generator lateness past which a request counts as failed.
LATE_LIMIT_S = 0.1
TERMINAL = ("done", "failed")


class Request:
    """One generated ``POST /jobs`` and what became of it."""

    def __init__(self, cell: cells.ServiceCell, due: float):
        self.cell = cell
        self.due = due
        self.sent: Optional[float] = None
        self.admitted: Optional[float] = None
        self.done: Optional[float] = None
        self.job: Optional[str] = None
        self.state: Optional[str] = None
        self.dedup = False

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class Generator:
    """Submits requests and polls their jobs to a terminal state.

    ``http`` needs one method, ``request(method, path, body)``; the clock
    and sleep are injectable so tests can drive a fake timeline.
    """

    def __init__(
        self,
        http: Any,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.http = http
        self.clock = clock
        self.sleep = sleep
        self.waiting: Dict[str, List[Request]] = {}
        self.last_poll: Dict[str, float] = {}
        #: Terminal job views (with results) by job id.
        self.views: Dict[str, Dict[str, Any]] = {}

    def submit(self, req: Request) -> None:
        req.sent = self.clock()
        status, body = self.http.request("POST", "/jobs", cells.serve_body(req.cell))
        req.admitted = self.clock()
        if status not in (200, 201):
            req.state = f"http-{status}"
            req.done = req.admitted
            return
        req.job = body["id"]
        req.dedup = status == 200
        if body["state"] in TERMINAL:
            req.state = body["state"]
            req.done = req.admitted
            if req.job not in self.views:
                self.views[req.job] = self.http.request("GET", f"/jobs/{req.job}")[1]
            return
        self.waiting.setdefault(req.job, []).append(req)
        self.last_poll.setdefault(req.job, req.admitted)

    def poll(self) -> Optional[float]:
        """Poll every waiting job not polled for ``POLL_S``; returns when
        the next poll falls due (None when nothing is waiting)."""
        for job in list(self.waiting):
            if self.clock() - self.last_poll[job] < POLL_S:
                continue
            status, view = self.http.request("GET", f"/jobs/{job}")
            now = self.clock()
            self.last_poll[job] = now
            if status == 200 and view["state"] in TERMINAL:
                self.views[job] = view
                state = view["state"]
            elif now - self.waiting[job][0].admitted > JOB_TIMEOUT_S:
                state = "timeout"
            else:
                continue
            for req in self.waiting.pop(job):
                req.done = now
                req.state = state
        if not self.waiting:
            return None
        return min(self.last_poll[job] for job in self.waiting) + POLL_S

    def wait_until(self, when: float) -> None:
        delay = when - self.clock()
        if delay > 0:
            self.sleep(delay)


def schedule(pool: Iterator[cells.ServiceCell], seed: int, count: int) -> List[cells.ServiceCell]:
    """Phase A's request cells: fresh ones from ``pool``, every
    ``REPEAT_EVERY``-th a repeat of a seeded earlier request."""
    rng = random.Random(f"repeats/{seed}")
    out: List[cells.ServiceCell] = []
    for index in range(count):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            out.append(out[rng.randrange(len(out))])
        else:
            out.append(next(pool))
    return out


def open_loop(gen: Generator, plan: List[cells.ServiceCell], rate: float) -> List[Request]:
    start = gen.clock()
    reqs = [Request(cell, start + index / rate) for index, cell in enumerate(plan)]
    sent = 0
    while sent < len(reqs) or gen.waiting:
        if sent < len(reqs) and gen.clock() >= reqs[sent].due:
            gen.submit(reqs[sent])
            sent += 1
            continue
        next_poll = gen.poll()
        wakes = [t for t in (reqs[sent].due if sent < len(reqs) else None, next_poll)
                 if t is not None]
        if wakes:
            gen.wait_until(min(wakes))
    return reqs


def closed_loop(
    gen: Generator, pool: Iterator[cells.ServiceCell], outstanding: int, duration: float
) -> Tuple[float, List[Request]]:
    start = gen.clock()
    reqs: List[Request] = []
    while True:
        live = sum(1 for req in reqs if req.done is None)
        if gen.clock() < start + duration and live < outstanding:
            req = Request(next(pool), gen.clock())
            reqs.append(req)
            gen.submit(req)
            continue
        if live == 0:
            return start, reqs
        next_poll = gen.poll()
        if next_poll is not None:
            gen.wait_until(next_poll)


def join_run_log(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per job id: the daemon's ``job_admitted``, ``lease_granted`` and
    ``job_done`` timestamps (first of each)."""
    stages: Dict[str, Dict[str, float]] = {}
    for record in records:
        job = record.get("job_id")
        if job and record["event"] in ("job_admitted", "lease_granted", "job_done"):
            stages.setdefault(job, {}).setdefault(record["event"], record["ts"])
    return stages


def stage_spans(
    stages: Dict[str, Dict[str, float]],
    parents: Dict[str, Tuple[int, float]],
    spans: Spans,
) -> Dict[str, List[Tuple[float, float]]]:
    """Add queue-wait, execute and deliver spans for each served job.

    ``parents`` maps a job id to (its request span, the wall time the
    client saw it terminal).  Returns each stage's (start, end) wall
    times by stage name.
    """
    intervals: Dict[str, List[Tuple[float, float]]] = {
        "queue_wait": [], "execute": [], "deliver": []}
    for job, (parent, seen) in parents.items():
        marks = stages.get(job, {})
        if not {"job_admitted", "lease_granted", "job_done"} <= set(marks):
            continue
        for name, start, end in (
            ("queue_wait", marks["job_admitted"], marks["lease_granted"]),
            ("execute", marks["lease_granted"], marks["job_done"]),
            ("deliver", marks["job_done"], seen),
        ):
            spans.add(f"serve.{name}", start, end, request=job, parent=parent)
            intervals[name].append((start, end))
    return intervals


def _warm_up(gen: Generator) -> None:
    """One untimed job per workload, so builds and the simulator's memo
    caches are warm before measuring, as in a long-running daemon."""
    for name in cells.WORKLOADS:
        req = Request(("no_tlb", name, 1), gen.clock())
        gen.submit(req)
        while req.done is None:
            gen.wait_until(gen.poll() or gen.clock())


def run(seed: int, plan: Plan, workdir: Path) -> Outcome:
    spans = Spans()
    pool = cells.service_pool(seed)
    window_a = plan.window_s * PHASE_A_SHARE
    plan_a = schedule(pool, seed, max(REPEAT_EVERY, round(window_a * RATE_PER_S)))
    # The daemon gets one vCPU (its executors share one interpreter lock
    # anyway); the generator polls from the other.
    cpus = available_cpus()
    daemon_cpu, generator_cpu = cpus[0], cpus[-1]
    setup: List[List[float]] = []
    fleet = None
    with sampling(workdir, [daemon_cpu]) as speed_files, pinned(generator_cpu):
        try:
            for attempt in range(plan.setup_starts):
                fleet = Fleet(workdir / f"fleet{attempt}", plan.trace, daemon_cpu=daemon_cpu)
                began_wall, began = time.time(), time.perf_counter()
                fleet.start()
                setup.append([began_wall, began_wall + time.perf_counter() - began])
                spans.add("setup", *setup[-1], request=f"start{attempt}")
                if attempt + 1 < plan.setup_starts:
                    fleet.close()
            rss_setup = fleet.rss_mb("VmRSS")
            gen = Generator(fleet.http)
            _warm_up(gen)
            anchor_wall, anchor = time.time(), gen.clock()
            phase_a = open_loop(gen, plan_a, RATE_PER_S)
            # Read after the fixed work of phase A; phase B's job count
            # depends on the host's speed.
            peak_rss = fleet.rss_mb("VmHWM")
            b_start, phase_b = closed_loop(gen, pool, OUTSTANDING_B, plan.window_s - window_a)
            metrics_text = fleet.http.request("GET", "/metrics")[1]
            journal_bytes = (fleet.dir / "journal.jsonl").stat().st_size
            run_log = fleet.run_log("daemon")
        finally:
            if fleet is not None:
                fleet.close()

        # The checked set: phase A's distinct cells, fixed by the seed.
        checked: List[cells.ServiceCell] = []
        served: Dict[str, Optional[str]] = {}
        for req in phase_a:
            key = cells.service_key(req.cell)
            if key not in served:
                checked.append(req.cell)
                result = gen.views.get(req.job, {}).get("result")
                served[key] = canonical(result) if result is not None else None
        oracle = reference(
            workdir,
            [list(cell) for cell in cells.sample(checked, GATE_CELLS, seed, "gate")],
            [list(cell) for cell in cells.layer_cells(seed)],
            plan.trace,
            daemon_cpu,
        )

    def wall(t: float) -> float:
        return anchor_wall + (t - anchor)

    reqs = phase_a + phase_b
    speed = HostSpeed.load(speed_files)

    def slowdown(start: float, end: float) -> float:
        return speed.slowdown([daemon_cpu], start, end)

    mismatches = compare(served, oracle["results"],
                         "served result differs from in-process simulate")
    mismatches.extend(oracle["mismatches"])
    prints = fingerprint([text for text in served.values() if text is not None])
    failed = sum(1 for req in reqs if req.state != "done" or req.late > LATE_LIMIT_S)
    lateness = [req.late for req in reqs]

    metrics: Dict[str, Any] = {}
    hits = prometheus_sum(metrics_text, "serve_jobs_submitted_total", dedup="hit")
    submitted = prometheus_sum(metrics_text, "serve_jobs_submitted_total")
    from_cache = prometheus_sum(metrics_text, "sweep_cells_total", source="cache")
    simulated = prometheus_sum(metrics_text, "sweep_cells_total", source="simulated")
    put(metrics, "serve.dedup_frac", hits / submitted, "ratio")
    put(metrics, "serve.rejected",
        int(prometheus_sum(metrics_text, "serve_admission_rejections_total")), "count")
    put(metrics, "serve.journal_bytes", journal_bytes, "bytes")
    put(metrics, "serve.http_requests",
        int(prometheus_sum(metrics_text, "serve_http_requests_total")), "count")
    put(metrics, "parallel.cache_hit_frac", from_cache / (from_cache + simulated), "ratio")
    put(metrics, "loadgen.late_p99_s", percentile(lateness, 99), "s")
    put(metrics, "loadgen.late_max_s", max(lateness), "s")

    parents: Dict[str, Tuple[int, float]] = {}
    for req in reqs:
        span = spans.add("serve.request", wall(req.due), wall(req.done), request=req.job)
        spans.add("serve.admit", wall(req.sent), wall(req.admitted), request=req.job,
                  parent=span)
        if req.job is not None and not req.dedup:
            parents.setdefault(req.job, (span, wall(req.done)))
    if plan.trace:
        stages = stage_spans(join_run_log(read_jsonl(run_log)), parents, spans)
        metrics.update(scale_times(oracle["layers"], slowdown(*oracle["layers_interval"])))
        execute = [(end - start) / slowdown(start, end) for start, end in stages["execute"]]
        put(metrics, "exec.cell_p50_s", percentile(execute, 50), "s")
        put(metrics, "exec.cell_p90_s", percentile(execute, 90), "s")
        put(metrics, "proc.rss_setup_mb", rss_setup, "MB")
        put(metrics, "sim.fingerprint_cycles", prints["cycles"], "count")
        put(metrics, "sim.fingerprint_instructions", prints["instructions"], "count")
        put(metrics, "serve.admit_p50_s",
            median([req.admitted - req.sent for req in reqs]), "s")
        for stage in ("queue_wait", "deliver"):
            waits = [end - start for start, end in stages[stage]]
            put(metrics, f"serve.{stage}_p50_s", percentile(waits, 50), "s")
            put(metrics, f"serve.{stage}_p90_s", percentile(waits, 90), "s")
    else:
        served_a = [req for req in phase_a if req.state == "done"]
        served_b = [req for req in phase_b if req.state == "done"]
        b_end = max(req.done for req in phase_b)
        put(metrics, "latency.samples", len(served_a), "count")
        end_to_end(
            metrics,
            setup=[(end - start, slowdown(start, end)) for start, end in setup],
            done=len(served_b),
            busy=[(b_end - b_start, slowdown(wall(b_start), wall(b_end)))],
            latencies=[(req.latency, slowdown(wall(req.due), wall(req.done)))
                       for req in served_a],
            instructions=sum(gen.views[req.job]["result"]["stats"]["instructions"]
                             for req in served_b),
            peak_rss_mb=peak_rss,
        )
    return Outcome(
        metrics=metrics,
        attempted=len(reqs),
        failed=failed,
        mismatches=mismatches,
        digest=prints["digest"],
        spans=spans,
    )
