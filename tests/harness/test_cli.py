"""The python -m repro.harness command line."""

from repro.harness.__main__ import main
from repro.parallel import cells


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "fig22" in out

    def test_unknown_figure(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "list" in err

    def test_unknown_workload(self, capsys):
        assert main(["fig04", "--workloads", "nosuchthing"]) == 2
        err = capsys.readouterr().err
        assert "nosuchthing" in err
        assert "bfs" in err  # the message names the valid choices

    def test_single_figure_restricted_workloads(self, capsys):
        assert main(["fig04", "--workloads", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "kmeans" in out

    def test_figure_with_cache_resumes(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        args = ["fig10", "--workloads", "kmeans", "--jobs", "1",
                "--cache", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        entries = sorted(cache.glob("*/*.json"))
        # fig10's five series, each one distinct machine.
        assert len(entries) == 5
        stored = {path: path.read_bytes() for path in entries}

        def _boom(*args, **kwargs):
            raise AssertionError("cell was re-simulated despite the cache")

        # Rerun: all cells come from the cache, output identical, and
        # the entries are untouched.
        monkeypatch.setattr(cells, "simulate_cell", _boom)
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert {p: p.read_bytes() for p in cache.glob("*/*.json")} == stored


class TestFaultsCLI:
    def test_tiny_smoke_reports_fault_counters(self, capsys):
        assert main(["faults", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "page faults" in out
        assert "ptw" in out

    def test_tiny_smoke_is_deterministic(self, capsys):
        assert main(["faults", "--tiny", "--check-determinism"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["faults", "nosuchthing"]) == 2
        err = capsys.readouterr().err
        assert "nosuchthing" in err and "bfs" in err
