"""Crash-safe files: the one write path every persisted file goes through.

Two shapes of durable file cover everything the repo keeps on disk:

- an **append-only write-ahead log** (:class:`WalFile`, replayed with
  :func:`read_wal`): the job journal and the distributed cell journal.
  Every append is flushed and fsync'd before it returns, so the
  durable record always leads the in-memory state; a crash mid-append
  tears at most the final line, which the next open terminates (so new
  appends start clean) and replay drops with a
  :class:`RuntimeWarning`.  Size-triggered **compaction** rewrites the
  live state to a fresh segment through :func:`atomic_write` — a crash
  mid-compaction leaves the original segment untouched, and a stale
  ``<path>.*.tmp`` from such a crash is discarded at the next open.
- a **whole file replaced atomically** (:func:`atomic_write`):
  result-cache entries (the store a killed sweep resumes from) and the
  server's ``--port-file``.  A reader only ever sees the previous
  complete file or the new complete file.

The module is stdlib-only on purpose: :mod:`repro.parallel` uses it,
and importing :mod:`repro.serve` from there would close an import
cycle.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
import warnings
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["WalFile", "atomic_write", "read_wal"]


def atomic_write(path: str, text: str) -> None:
    """Replace the file at ``path`` with ``text``, atomically and durably.

    The text goes to a uniquely named ``<basename>.<random>.tmp`` in the
    target directory (so the rename never crosses filesystems, and two
    threads writing one path never share a temp file), is flushed and
    fsync'd, then moved into place with ``os.replace`` — the commit
    point.  The directory is fsync'd afterwards, best effort, so the
    rename itself survives a power cut.  On any exception the temp file
    is removed and the previous file is left intact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # directory fsync is best-effort (non-POSIX hosts)


def read_wal(
    path: str, label: str, stats: Dict[str, int]
) -> Iterator[Dict[str, Any]]:
    """Yield every parseable JSON event in the WAL at ``path``.

    Torn lines (a crash mid-append) are dropped with a
    :class:`RuntimeWarning` naming the line — the transition a torn
    line recorded simply re-happens, but dropping one *silently* would
    make a corrupted file indistinguishable from a clean one — and
    counted in ``stats`` under ``"dropped"``.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                stats["dropped"] = stats.get("dropped", 0) + 1
                warnings.warn(
                    f"{label} {path}: dropping truncated line {lineno} "
                    f"(crash mid-append?); the transition it recorded "
                    f"will re-happen",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            if isinstance(event, dict):
                yield event


class WalFile:
    """Append-only, fsync'd JSONL write-ahead log with compaction.

    Subclasses append events with :meth:`append` and implement
    :meth:`live_events` for size-triggered compaction: when an append
    pushes the file past ``max_bytes`` (None: never), the events
    returned by :meth:`live_events` atomically replace the log
    (:func:`atomic_write`).
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None):
        self.path = path
        self.max_bytes = max_bytes
        self.compactions = 0
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        # A compaction interrupted by a crash leaves its half-written
        # temporary segment behind; the original log was never touched
        # (os.replace is the commit point), so the leftover is garbage.
        for stale in glob.glob(glob.escape(path) + ".*.tmp"):
            try:
                os.remove(stale)
            except OSError:
                pass
        # A crash mid-append can leave the file without a trailing
        # newline.  Terminate that torn line before appending, or the
        # first new event would concatenate onto the garbage and be
        # lost with it on the next replay.
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                ends_clean = probe.read(1) == b"\n"
            if not ends_clean:
                with open(path, "ab") as repair:
                    repair.write(b"\n")
                    repair.flush()
                    os.fsync(repair.fileno())
        self._file = open(path, "a", encoding="utf-8")

    # -- appends (each one durable before it returns) ------------------

    def append(self, event: Dict[str, Any]) -> None:
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())
        if (
            self.max_bytes is not None
            and self._file.tell() > self.max_bytes
        ):
            self._compact()

    # -- compaction ----------------------------------------------------

    def live_events(self) -> List[Dict[str, Any]]:
        """The minimal event list reconstructing the current state."""
        raise NotImplementedError

    def _compact(self) -> None:
        segment = "".join(
            json.dumps(event, sort_keys=True) + "\n"
            for event in self.live_events()
        )
        self._file.close()
        # A crash before atomic_write's commit point leaves the old
        # segment intact (plus a stale tmp the next open discards); a
        # crash after it leaves the compacted segment, fully fsync'd.
        atomic_write(self.path, segment)
        self._file = open(self.path, "a", encoding="utf-8")
        self.compactions += 1

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WalFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
