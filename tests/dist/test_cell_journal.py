"""Cell-journal torn tails: dropped with a warning, appends start clean."""

from __future__ import annotations

import pytest

from repro.dist.journal import CellJournal, CellState


def test_torn_final_line_is_dropped_with_a_warning(tmp_path):
    path = str(tmp_path / "cells.jsonl")
    with CellJournal(path) as journal:
        journal.record_entry(CellState(key="k1", wire={"label": "a"}))
        journal.record_done(
            "k1", '{"cycles": 1}', digest="sha256:1", worker="w1"
        )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"ev": "shard", "key": "torn-mid-app')
    with pytest.warns(RuntimeWarning, match="truncated"):
        journal = CellJournal(path)
    with journal:
        replayed = journal.replayed
    assert replayed.dropped_lines == 1
    assert replayed.entries["k1"].state == "done"
    assert "torn-mid-app" not in replayed.entries


def test_cell_recorded_after_a_torn_line_survives_the_next_open(tmp_path):
    # A restarted coordinator appends to the torn journal; its new
    # events must parse on the *next* replay even though a partial
    # line precedes them.
    path = str(tmp_path / "cells.jsonl")
    with CellJournal(path) as journal:
        journal.record_entry(CellState(key="k1", wire={"label": "a"}))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"ev": "lease", "key": "k1')  # torn, no newline
    with pytest.warns(RuntimeWarning, match="truncated"):
        journal = CellJournal(path)
    with journal:
        journal.record_done(
            "k1", '{"cycles": 2}', digest="sha256:2", worker="w1"
        )
    with pytest.warns(RuntimeWarning, match="truncated"):
        journal = CellJournal(path)
    with journal:
        replayed = journal.replayed
    assert replayed.entries["k1"].state == "done"
    assert replayed.entries["k1"].result == '{"cycles": 2}'
    assert replayed.terminal_counts == {"k1": 1}
