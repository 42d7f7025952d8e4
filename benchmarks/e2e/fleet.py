"""Program processes for the service workloads: a ``repro.serve`` daemon,
optionally with ``repro.dist`` workers, and the in-process oracle."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import HERE, Http, child_env, spawn, status_kb, stop

#: Seconds a fleet gets to come up before the run is abandoned.
START_TIMEOUT_S = 60.0


class Fleet:
    """A daemon with a fresh journal and result cache, plus one pull-mode
    dist worker pinned to each of ``worker_cpus`` when sharding is
    wanted.

    Traced fleets give every process its own ``REPRO_LOG_JSONL`` run log
    under the fleet directory.
    """

    def __init__(
        self,
        workdir: Path,
        traced: bool,
        daemon_cpu: Optional[int] = None,
        worker_cpus: Sequence[int] = (),
    ):
        self.dir = workdir
        self.dir.mkdir(parents=True)
        self.traced = traced
        self.daemon_cpu = daemon_cpu
        self.worker_cpus = list(worker_cpus)
        self.daemon: Optional[subprocess.Popen] = None
        self.worker_procs: List[subprocess.Popen] = []
        self.http: Optional[Http] = None

    def run_log(self, name: str) -> Optional[Path]:
        return self.dir / f"{name}.runlog.jsonl" if self.traced else None

    def _procs(self) -> List[subprocess.Popen]:
        return ([self.daemon] if self.daemon else []) + self.worker_procs

    def _spawn(self, name: str, cmd: List[str], cpu: Optional[int]) -> subprocess.Popen:
        # A process's stderr goes to a file beside its run log: a daemon
        # prints a traceback for every client it loses at teardown.
        with open(self.dir / f"{name}.stderr", "w", encoding="utf-8") as err:
            return spawn(cmd, env=child_env(self.run_log(name)), cpu=cpu,
                         stdout=subprocess.DEVNULL, stderr=err)

    def _check(self, deadline: float) -> None:
        for proc in self._procs():
            if proc.poll() is not None:
                logs = "".join(path.read_text()[-2000:] for path in self.dir.glob("*.stderr"))
                raise RuntimeError(
                    f"pid {proc.pid} exited {proc.returncode} during start-up:\n{logs}")
        if time.monotonic() > deadline:
            raise RuntimeError("fleet did not come up in time")
        time.sleep(0.005)

    def start(self) -> None:
        """Spawn everything; return once ``/readyz`` answers 200 and every
        worker has polled the coordinator."""
        deadline = time.monotonic() + START_TIMEOUT_S
        port_file = self.dir / "port"
        cmd = [
            sys.executable, "-m", "repro.serve",
            "--journal", str(self.dir / "journal.jsonl"),
            "--cache", str(self.dir / "cache"),
            "--port", "0",
            "--port-file", str(port_file),
            "--slots", "2",
            "--drain-grace", "5",
        ]
        if self.worker_cpus:
            cmd += ["--dist-journal", str(self.dir / "cells.jsonl")]
        self.daemon = self._spawn("daemon", cmd, self.daemon_cpu)
        while not (port_file.exists() and port_file.read_text().strip()):
            self._check(deadline)
        address = port_file.read_text().strip()
        self.http = Http(address)
        while self.http.request("GET", "/readyz")[0] != 200:
            self._check(deadline)
        for index, cpu in enumerate(self.worker_cpus):
            self.worker_procs.append(self._spawn(f"worker{index}", [
                sys.executable, "-m", "repro.harness", "worker",
                "--coordinator", f"http://{address}",
                "--poll", "0.05",
                "--id", f"w{index}",
            ], cpu))
        while self.worker_cpus and (
            self.http.request("GET", "/dist/status")[1]["workers_live"] < len(self.worker_cpus)
        ):
            self._check(deadline)

    def rss_mb(self, field: str) -> float:
        """Largest ``field`` (``VmRSS`` now, ``VmHWM`` peak) over the
        fleet's processes, in MB."""
        return max(status_kb(proc.pid, field) for proc in self._procs()) / 1024.0

    def close(self) -> None:
        """Stop workers, then drain the daemon; always reaps every process."""
        if self.http is not None:
            self.http.close()
        try:
            for proc in self.worker_procs:
                stop(proc)
        finally:
            if self.daemon is not None:
                stop(self.daemon)


def reference(
    workdir: Path,
    cells: List[Any],
    layer_cells: List[Any],
    trace: bool,
    cpu: int,
    timeout_s: float = 120.0,
) -> Dict[str, Any]:
    """Simulate service ``cells`` in a fresh process pinned to ``cpu``
    (the oracle) and, traced, replay ``layer_cells`` under the profiler."""
    spec_path = workdir / "reference.json"
    report_path = workdir / "reference-report.json"
    spec_path.write_text(json.dumps({
        "mode": "reference",
        "cells": cells,
        "layer_cells": layer_cells,
        "trace": trace,
        "report": str(report_path),
    }), encoding="utf-8")
    proc = spawn(
        [sys.executable, str(HERE / "simproc.py"), str(spec_path)], env=child_env(), cpu=cpu
    )
    try:
        proc.wait(timeout_s)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"reference process exited {proc.returncode}")
    return json.loads(report_path.read_text(encoding="utf-8"))
