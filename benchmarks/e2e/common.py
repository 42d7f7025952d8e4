"""Shared pieces of the end-to-end benchmark: statistics, metrics, spans,
child processes, and the load generator's HTTP connection.

Nothing here imports :mod:`repro`: the driver imports this module before
it has checked that the source tree is present.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import http.client
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Repository root: this file lives at ``benchmarks/e2e/common.py``.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Seeded cells each run re-checks against an independent oracle.
GATE_CELLS = 8


@dataclass(frozen=True)
class Plan:
    """How much work one run does."""

    seconds: float
    trace: bool
    smoke: bool = False

    @property
    def window_s(self) -> float:
        """The measured window: traced runs spend half of ``seconds`` on
        it and the rest replaying the fixed cells under the profiler."""
        return self.seconds / 2 if self.trace else self.seconds

    @property
    def setup_starts(self) -> int:
        """Cold starts per run; ``setup_s`` is their median."""
        return 1 if self.smoke else 3

    @property
    def checked_limit(self) -> Optional[int]:
        """Design points in the sweeps' checked set (None = all)."""
        return GATE_CELLS if self.smoke else None


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds everything measured; the driver reports the ones
    ``BENCHMARK.json`` declares for the mode and prints the rest as
    workload-specific extras.
    """

    metrics: Dict[str, Dict[str, Any]]
    attempted: int
    failed: int
    mismatches: List[str]
    digest: str
    spans: "Spans" = field(repr=False)

    @property
    def correct(self) -> bool:
        return not self.mismatches


# -- statistics ----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def canonical(result: Dict[str, Any]) -> str:
    """A served result dict as ``SimulationResult.canonical_json()``."""
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def fingerprint(results: Sequence[str]) -> Dict[str, Any]:
    """Digest and model counts over canonical result strings.

    The counts repeat exactly for a given seed: a change made only for
    speed must leave them identical.
    """
    digest = hashlib.sha256()
    cycles = instructions = 0
    for text in results:
        digest.update(text.encode("utf-8"))
        parsed = json.loads(text)
        cycles += parsed["cycles"]
        instructions += parsed["stats"]["instructions"]
    return {"digest": digest.hexdigest(), "cycles": cycles, "instructions": instructions}


def compare(results: Dict[str, Optional[str]], oracle: Dict[str, str], what: str) -> List[str]:
    """The correctness gate: one mismatch line per oracle key whose
    result string is not byte-identical to the oracle's."""
    return [
        f"{key}: {what}"
        for key, expected in oracle.items()
        if results.get(key) != expected
    ]


def put(metrics: Dict[str, Dict[str, Any]], name: str, value, unit: str) -> None:
    """Record one metric in the result format ``{"value", "unit"}``."""
    metrics[name] = {
        "value": value if isinstance(value, int) else float(value),
        "unit": unit,
    }


# -- host speed ----------------------------------------------------------
#
# Each vCPU of a shared host flips, many times a second, between full
# speed and roughly 60 % of it as a neighbour on the other hardware
# thread of its core comes and goes.  The simulator and a fixed slice of
# interpreter work slow down together.  So each program process runs
# pinned to a known vCPU, a light sampler process pinned beside it
# records how much CPU time ``reference_work`` takes there every 0.2 s,
# and each measured interval is divided by the average slowdown its vCPU
# showed meanwhile.  CPU time, not wall time: the sampler shares the
# vCPU with a busy program process.

#: CPU time of one ``reference_work`` on a quiet vCPU of the calibration
#: host: the unit normalized timings are expressed against.
REFERENCE_NOMINAL_S = 0.005
REFERENCE_SETS = 32768
SAMPLE_EVERY_S = 0.2
#: Samples an interval borrows from its neighbourhood when it holds
#: fewer of its own.
MIN_SAMPLES = 5

#: (raw seconds, slowdown of the vCPUs that did the work meanwhile).
Timed = Tuple[float, float]


def reference_work() -> int:
    """A fixed slice of interpreter work shaped like the simulator's hot
    path: an 8-way LRU cache of 32768 sets driven by a pseudo-random
    address stream (allocation, list scans, dict updates, integer
    arithmetic).  Its megabytes of state matter: a small working set
    reacts to a busy neighbouring hardware thread differently from the
    simulator's."""
    sets: List[List[int]] = [[] for _ in range(REFERENCE_SETS)]
    tags: Dict[int, int] = {}
    hits = 0
    x = 12345
    for step in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 3) & (REFERENCE_SETS * 16 - 1)
        ways = sets[line & (REFERENCE_SETS - 1)]
        if line in ways:
            ways.remove(line)
            hits += 1
        elif len(ways) >= 8:
            tags.pop(ways.pop(0), None)
        ways.append(line)
        tags[line] = step
    return hits


def available_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


class HostSpeed:
    """Reference samples per vCPU, as (wall time, CPU seconds) pairs."""

    def __init__(self, samples: Dict[int, List[Tuple[float, float]]]):
        self.samples = samples

    @classmethod
    def load(cls, paths: Dict[int, Path]) -> "HostSpeed":
        return cls({
            cpu: [tuple(record) for record in read_jsonl(path)]
            for cpu, path in paths.items()
        })

    def _near(self, cpu: int, start: float, end: float) -> List[float]:
        samples = self.samples[cpu]
        inside = [cpu_s for wall, cpu_s in samples if start <= wall <= end]
        if len(inside) >= MIN_SAMPLES:
            return inside
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        return [cpu_s for _, cpu_s in nearest[:MIN_SAMPLES]]

    def slowdown(self, cpus: Sequence[int], start: float, end: float) -> float:
        """How much slower than nominal ``cpus`` ran over ``[start, end]``
        (wall times).  A vCPU flips between two speeds many times a
        second, so its average speed over the interval is the mean of
        the sampled speeds (a median would jump between the two modes).
        Work spread over several vCPUs proceeds at the sum of their
        speeds."""
        speeds = [
            sum(REFERENCE_NOMINAL_S / cpu_s for cpu_s in near) / len(near)
            for near in (self._near(cpu, start, end) for cpu in cpus)
        ]
        return len(speeds) / sum(speeds)


@contextlib.contextmanager
def sampling(workdir: Path, cpus: Sequence[int]) -> Iterator[Dict[int, Path]]:
    """Run one sampler process pinned to each of ``cpus`` for the block;
    yields the paths of their sample files."""
    paths = {cpu: workdir / f"speed-cpu{cpu}.jsonl" for cpu in cpus}
    procs: List[subprocess.Popen] = []
    try:
        for cpu, path in paths.items():
            procs.append(spawn(
                [sys.executable, str(HERE / "sampler.py"), str(path)],
                env=child_env(), cpu=cpu, stdout=subprocess.DEVNULL,
            ))
        yield paths
    finally:
        for proc in procs:
            stop(proc)


@contextlib.contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """Pin the calling thread (the load generator) to ``cpu``."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def scale_times(metrics: Dict[str, Dict[str, Any]], slowdown: float) -> Dict[str, Dict[str, Any]]:
    """``metrics`` with every host-time value (unit ``s`` or ``ns``)
    divided by ``slowdown``."""
    return {
        name: ({"value": m["value"] / slowdown, "unit": m["unit"]}
               if m["unit"] in ("s", "ns") else m)
        for name, m in metrics.items()
    }


def end_to_end(
    metrics: Dict[str, Dict[str, Any]],
    setup: Sequence[Timed],
    done: int,
    busy: Sequence[Timed],
    latencies: Sequence[Timed],
    instructions: int,
    peak_rss_mb: float,
) -> None:
    """Record the declared end-to-end metrics.

    ``setup`` holds the cold starts, ``busy`` the intervals in which the
    ``done`` operations (and ``instructions`` simulated warp
    instructions) completed, ``latencies`` one entry per operation.
    Timings are normalized to the nominal host speed; each also appears
    raw as ``raw.<name>``.
    """
    for prefix, view in (
        ("", lambda pairs: [raw / slow for raw, slow in pairs]),
        ("raw.", lambda pairs: [raw for raw, _ in pairs]),
    ):
        busy_s = sum(view(busy))
        put(metrics, prefix + "setup_s", median(view(setup)), "s")
        put(metrics, prefix + "ops_per_s", done / busy_s, "1/s")
        put(metrics, prefix + "latency_p50_ms", percentile(view(latencies), 50) * 1e3, "ms")
        put(metrics, prefix + "latency_p90_ms", percentile(view(latencies), 90) * 1e3, "ms")
        put(metrics, prefix + "sim_kips", instructions / busy_s / 1e3, "kinst/s")
    put(metrics, "peak_rss_mb", peak_rss_mb, "MB")
    put(metrics, "host.slowdown", median([slow for _, slow in busy]), "ratio")


# -- spans ---------------------------------------------------------------


class Spans:
    """Benchmark-side spans, kept in memory and written out at exit.

    Each span has a name, wall-clock start and end (``time.time()``, so
    spans joined from the program's run logs share the time base), the
    id of the span that caused it, and a request id (a job id or a cell
    key) shared by every span of one request.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> int:
        """Record a span; returns its id for children to name as parent."""
        span_id = len(self.records)
        self.records.append({
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "request": request,
        })
        return span_id

    def extend(self, other: "Spans", workload: str) -> None:
        """Append ``other``'s spans, re-numbered and tagged by workload."""
        base = len(self.records)
        for record in other.records:
            copy = dict(record)
            copy["id"] += base
            if copy["parent"] is not None:
                copy["parent"] += base
            copy["workload"] = workload
            self.records.append(copy)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# -- child processes -----------------------------------------------------

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have Linux SIGTERM the calling child if the benchmark dies first
    (even by SIGKILL), so no daemon or worker is ever orphaned."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def child_env(run_log: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a program process: ``src`` importable, run logs
    off unless ``run_log`` names this process's JSONL log."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_LOG")}
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if run_log is not None:
        env["REPRO_LOG_JSONL"] = str(run_log)
    return env


def spawn(
    cmd: List[str], env: Dict[str, str], cpu: Optional[int] = None, **kwargs: Any
) -> subprocess.Popen:
    """Start a process from the repository root, pinned to ``cpu`` when
    given."""

    def prepare() -> None:
        _die_with_parent()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, preexec_fn=prepare, **kwargs)
    print(
        f"[e2e] started pid {proc.pid}: {' '.join(cmd[1:4])}",
        file=sys.stderr,
        flush=True,
    )
    return proc


def stop(proc: subprocess.Popen, timeout_s: float = 15.0) -> int:
    """SIGTERM ``proc``, SIGKILL it if it lingers, and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return proc.returncode


def status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in kB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- HTTP ----------------------------------------------------------------


class Http:
    """One keep-alive HTTP/1.1 connection speaking JSON.

    The load generator is single-threaded and uses exactly one of these
    per daemon, so its own socket setup never shows up as latency.
    Requests that lose their connection are re-sent once: every route
    the generator uses (GET, content-keyed ``POST /jobs`` and
    ``/dist/shard``) is safe to repeat.
    """

    def __init__(self, address: str, timeout_s: float = 30.0):
        host, port = address.rsplit(":", 1)
        self._conn = http.client.HTTPConnection(host, int(port), timeout=timeout_s)

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, OSError):
                self._conn.close()
                if attempt:
                    raise
        text = raw.decode("utf-8")
        if path.startswith("/metrics"):
            return response.status, text
        return response.status, json.loads(text) if text else None

    def close(self) -> None:
        self._conn.close()


def prometheus_sum(text: str, name: str, **labels: str) -> float:
    """Sum of the ``name`` samples in Prometheus text whose labels
    include ``labels``."""
    total = 0.0
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        head, _, value = line.rpartition(" ")
        metric = head.split("{", 1)[0]
        if metric != name or not all(w in head for w in wanted):
            continue
        total += float(value)
    return total


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Records of a JSONL run log (an absent log has none)."""
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
