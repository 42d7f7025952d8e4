"""The benchmark command end to end, at ``--smoke`` size."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STARTED = re.compile(r"\[e2e\] started pid (\d+)")


def _smoke(out, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "1", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, _smoke(out, "--trace")


def _printed(stdout):
    """Metric lines (``name value unit``) by name; digest lines have no
    unit."""
    lines = {}
    for line in stdout.splitlines()[:-1]:
        fields = line.split(" ")
        if len(fields) == 3:
            lines[fields[0]] = (fields[1], fields[2])
    return lines


def _check_declared(proc, section):
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            value, unit = printed[f"{workload}/{metric['name']}"]
            assert unit == metric["unit"]
            float(value)
            assert last["metrics"][f"{workload}/{metric['name']}"]["unit"] == unit


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    _check_declared(untraced, "end_to_end")


def test_traced_run_prints_every_per_layer_metric_and_spans(traced):
    out, proc = traced
    _check_declared(proc, "per_layer")
    spans = [json.loads(line) for line in (out / "spans.jsonl").read_text().splitlines()]
    names = {span["name"] for span in spans}
    assert {"setup", "api.simulate", "serve.queue_wait", "serve.execute",
            "dist.execute", "dist.round"} <= names
    assert all(span["end"] >= span["start"] for span in spans)
    result = json.loads((out / "result.json").read_text())
    assert set(result["workloads"]) == set(WORKLOADS)


def test_no_started_process_outlives_the_run(untraced):
    pids = [int(pid) for pid in STARTED.findall(untraced.stderr)]
    assert pids
    assert not [pid for pid in pids if _alive(pid)]


def test_ctrl_c_stops_daemon_and_workers(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--smoke", "--workload", "dist-sweep",
         "--seconds", "60", "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        while len(pids) < 3:  # the daemon and both workers
            line = proc.stderr.readline()
            assert line, "benchmark exited before starting its fleet"
            pids += [int(pid) for pid in STARTED.findall(line)]
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == 130
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert not [pid for pid in pids if _alive(pid)]


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mmu-sweep",
         "--seed", "0", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
