"""``python -m repro.harness top``: frames from metrics scrapes."""

from __future__ import annotations

import threading

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.top import TopView, main as top_main
from repro.prof.export import parse_prometheus, to_prometheus
from repro.prof.registry import MetricsRegistry
from repro.serve.app import ServeApp, ServeConfig, make_server
from repro.serve.client import ServeClient


def _serve_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.gauge("serve_queue_depth").set(3)
    registry.gauge("serve_in_flight").set(2)
    registry.gauge("serve_slots").set(4)
    registry.gauge("serve_ready").set(1)
    registry.counter("serve_jobs_terminal_total").inc(7, state="done")
    registry.counter("serve_jobs_terminal_total").inc(1, state="failed")
    registry.counter("serve_admission_rejections_total").inc(2, reason="busy")
    registry.counter("sim_cycles").inc(100_000, engine="event")
    registry.counter("sim_cycles").inc(40_000, engine="cycle")
    registry.counter("sim_instructions").inc(5_000, engine="event")
    registry.counter("sweep_cells_total").inc(6, source="simulated")
    registry.counter("sweep_cells_total").inc(4, source="cache")
    registry.gauge("sweep_in_flight").set(2)
    registry.histogram("sweep_cell_seconds").observe(1.5)
    registry.histogram("sweep_cell_seconds").observe(2.5)
    return registry


class TestTopView:
    def test_frame_carries_every_section(self):
        samples = parse_prometheus(to_prometheus(_serve_registry()))
        frame = TopView("test").render(samples, now=10.0)
        assert "queue 3" in frame
        assert "in-flight 2" in frame
        assert "slots 4" in frame
        assert "done 7" in frame
        assert "failed 1" in frame
        assert "reused 4" in frame
        assert "event" in frame and "cycle" in frame
        assert "100,000" in frame
        # mean cell 2s over 2 in-flight cells → eta 4s
        assert "mean cell 2s" in frame
        assert "eta 4s" in frame

    def test_rate_is_scrape_to_scrape(self):
        view = TopView("test")
        registry = _serve_registry()
        view.render(parse_prometheus(to_prometheus(registry)), now=10.0)
        registry.counter("sim_cycles").inc(50_000, engine="event")
        frame = view.render(
            parse_prometheus(to_prometheus(registry)), now=12.0
        )
        assert "25,000" not in frame  # rate column is unformatted int
        assert "25000" in frame  # 50k cycles / 2s

    def test_first_frame_has_no_rate(self):
        samples = parse_prometheus(to_prometheus(_serve_registry()))
        view = TopView("test")
        built = view.build(samples, now=10.0)
        assert all(r["cycles_per_s"] is None for r in built["engines"])

    def test_no_serve_section_without_serve_metrics(self):
        registry = MetricsRegistry()
        registry.counter("sim_cycles").inc(10, engine="event")
        samples = parse_prometheus(to_prometheus(registry))
        view = TopView("test").build(samples, now=1.0)
        assert view["serve"] is None


class TestTopCLI:
    def test_once_from_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(to_prometheus(_serve_registry()))
        assert top_main(["--file", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "queue 3" in out

    def test_dispatched_from_harness(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(to_prometheus(_serve_registry()))
        assert harness_main(["top", "--file", str(path), "--once"]) == 0
        assert "repro top" in capsys.readouterr().out

    def test_once_with_missing_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.prom"
        assert top_main(["--file", str(missing), "--once"]) == 1
        out = capsys.readouterr().out
        assert "DISCONNECTED" in out
        assert "no frame ever received" in out

    def test_url_or_file_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            top_main(["--once"])
        assert excinfo.value.code == 2


class TestTopAgainstDaemon:
    def test_once_scrapes_a_live_daemon(self, tmp_path, capsys):
        # The default registry: the served simulation's sim_* counters
        # land there, so /metrics carries an engine row.
        app = ServeApp(
            ServeConfig(journal=str(tmp_path / "journal.jsonl"), tick_s=0.005)
        )
        app.start()
        httpd = make_server(app)
        threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        ).start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            client = ServeClient(url)
            job = client.submit(
                "simulate",
                {
                    "config": {
                        "preset": "naive",
                        "overrides": {
                            "num_cores": 1,
                            "warps_per_core": 8,
                            "warp_width": 8,
                        },
                    },
                    "workload": "bfs",
                },
            )
            assert client.wait(job["id"], timeout_s=60)["state"] == "done"
            code = harness_main(["top", "--url", url, "--once", "--plain"])
        finally:
            httpd.shutdown()
            httpd.server_close()
            app.drain(grace_s=1.0)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("serve    ready") for line in lines)
        assert any(line.split()[:1] == ["event"] for line in lines)
