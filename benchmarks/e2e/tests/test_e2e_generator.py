"""The load generator's clock, the run-log joins, and the correctness gate."""

import json

import pytest

import dist_load
import run
import serve_load
from common import Outcome, Spans, compare


class FakeDaemon:
    """Scripted ``/jobs`` routes on a fake clock: the first POST stalls
    for a second, every job finishes 0.1 s after admission."""

    def __init__(self):
        self.now = 0.0
        self.finish = {}

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    def request(self, method, path, body=None):
        if method == "POST":
            if not self.finish:
                self.now += 1.0
            job = "j" + json.dumps(body, sort_keys=True)
            self.finish.setdefault(job, self.now + 0.1)
            return 201, {"id": job, "state": "queued"}
        job = path[len("/jobs/"):]
        done = self.now >= self.finish[job]
        return 200, {"id": job, "state": "done" if done else "running",
                     "result": {"cycles": 1, "stats": {"instructions": 1}}}


def test_open_loop_latency_counts_from_the_due_time():
    daemon = FakeDaemon()
    gen = serve_load.Generator(daemon, clock=daemon.clock, sleep=daemon.sleep)
    plan = [("no_tlb", name, 0) for name in ("bfs", "kmeans", "pathfinder")]
    reqs = serve_load.open_loop(gen, plan, rate=4.0)
    assert [r.state for r in reqs] == ["done"] * 3
    second = reqs[1]
    # Due at 0.25 s but sent after the 1 s stall of the first POST: the
    # stall counts against it.
    assert second.due == pytest.approx(0.25)
    assert second.late >= 0.75
    assert second.latency == pytest.approx(second.done - second.due)
    assert second.latency >= second.late + 0.1
    assert second.latency > second.done - second.sent


def test_serve_run_log_join_gives_one_queue_and_execute_span_per_job():
    records = []
    for index, job in enumerate(("ja", "jb", "jc")):
        base = 100.0 + index
        records += [
            {"event": "job_admitted", "job_id": job, "ts": base},
            {"event": "lease_granted", "job_id": job, "ts": base + 0.01},
            {"event": "run_start", "ts": base + 0.02},
            {"event": "job_done", "job_id": job, "ts": base + 0.2},
        ]
    records.append({"event": "serve_start", "ts": 99.0})
    spans = Spans()
    parents = {job: (spans.add("serve.request", 99.5, 110.0, request=job), 110.0)
               for job in ("ja", "jb", "jc")}
    intervals = serve_load.stage_spans(serve_load.join_run_log(records), parents, spans)
    for stage in ("queue_wait", "execute", "deliver"):
        named = [s for s in spans.records if s["name"] == f"serve.{stage}"]
        assert sorted(s["request"] for s in named) == ["ja", "jb", "jc"]
        assert all(s["parent"] == parents[s["request"]][0] for s in named)
        assert len(intervals[stage]) == 3
    assert [end - start for start, end in intervals["execute"]] == pytest.approx([0.19] * 3)


def test_dist_run_log_join_attributes_simulator_records_to_leased_cell():
    coordinator = [
        {"event": "dist_shard", "cell": "k1", "ts": 1.0},
        {"event": "dist_shard", "cell": "k2", "ts": 1.0},
        {"event": "dist_lease", "cell": "k1", "ts": 1.1},
        {"event": "dist_lease", "cell": "k2", "ts": 1.2},
        {"event": "dist_complete", "cell": "k1", "ts": 1.6},
        {"event": "dist_complete", "cell": "k2", "ts": 1.9},
    ]
    workers = [
        [{"event": "worker_lease", "cell": "k1", "ts": 1.11},
         {"event": "run_start", "ts": 1.12},
         {"event": "run_end", "ts": 1.5}],
        [{"event": "worker_lease", "cell": "k2", "ts": 1.21},
         {"event": "run_start", "ts": 1.25},
         {"event": "run_end", "ts": 1.8}],
    ]
    stages = dist_load.join_run_logs(coordinator, workers)
    assert stages["k2"]["run_start"] == 1.25
    assert stages["k1"]["run_end"] == 1.5
    assert (stages["k1"]["worker"], stages["k2"]["worker"]) == (0, 1)
    for marks in stages.values():
        for _name, begin, end in dist_load.STAGES:
            assert marks[end] >= marks[begin]


def test_gate_flags_a_tampered_result():
    oracle = {"a": '{"cycles":10}', "b": '{"cycles":20}'}
    assert compare(dict(oracle), oracle, "differs") == []
    tampered = dict(oracle, b='{"cycles":21}')
    assert compare(tampered, oracle, "differs") == ["b: differs"]
    assert compare({"a": oracle["a"]}, oracle, "differs") == ["b: differs"]


def test_a_mismatch_makes_the_run_incorrect(monkeypatch, tmp_path, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}

    def fake(seed, plan, workdir):
        return Outcome(metrics=metrics, attempted=3, failed=0,
                       mismatches=["x: tampered"], digest="d", spans=Spans())

    monkeypatch.setattr(run, "_runner", lambda name: fake)
    code = run.main(["--workload", "mmu-sweep", "--seconds", "1", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
