"""Pluggable trace sinks.

A sink receives every :class:`~repro.obs.events.TraceEvent` the tracer
records and must implement ``record(event)`` and ``close()``.  Four
implementations cover the observability spectrum:

- :class:`NullSink` — drops everything (the default; with no tracer
  installed the hot paths pay only a module-flag boolean check and never
  construct events at all).
- :class:`RingBufferSink` — bounded in-memory buffer, queryable from
  tests and the post-hoc histogram derivations.
- :class:`JsonlSink` — streams one JSON object per line to a file.
- :class:`ChromeTraceSink` — emits Chrome trace-event JSON loadable in
  Perfetto / ``chrome://tracing``, one process per core and one thread
  per hardware track (tlb, walker, mshr, dram...).
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Optional, Union

from repro.obs.events import COUNTER_KINDS, SPAN, TraceEvent


class NullSink:
    """Accepts and discards every event."""

    def record(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    The hot path is :meth:`record_raw`: the tracer hands over the
    *constructor tuple* of a :class:`TraceEvent` rather than the event
    itself, and the sink materializes event objects lazily — only the
    retained window is ever constructed, so a run emitting millions of
    events builds at most ``capacity`` of them (plus whatever a mid-run
    reader like the hang watchdog asks for).  Storage is a plain list
    trimmed amortized at ``2 * capacity``; readers always see exactly
    the newest ``capacity`` entries.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are dropped (and counted
        in :attr:`dropped`) once the buffer is full.
    """

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._raw: List = []  # TraceEvent | constructor tuple, mixed
        self._trim_at = 2 * capacity
        self._trimmed = 0
        self._rebuild_record()

    def _rebuild_record(self) -> None:
        """(Re)build :meth:`record_raw` as a closure over the storage
        list — one append, one length check, no attribute loads per
        event.  The check runs after every append, so at trim time the
        list holds exactly ``2 * capacity`` items and the cut is always
        the oldest ``capacity`` of them."""
        raw = self._raw
        append = raw.append
        trim_at = self._trim_at
        capacity = self.capacity
        sink = self

        def record_raw(item) -> None:
            append(item)
            if len(raw) >= trim_at:
                del raw[:capacity]
                sink._trimmed += capacity

        self.record_raw = record_raw

    def record(self, event: TraceEvent) -> None:
        self.record_raw(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return min(len(self._raw), self.capacity)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (retained or dropped)."""
        return self._trimmed + len(self._raw)

    @property
    def dropped(self) -> int:
        """Events pushed out of the buffer by newer ones."""
        return self.recorded - len(self)

    def events(self, kind: Optional[str] = None, core: Optional[int] = None) -> List[TraceEvent]:
        """Retained events, optionally filtered by kind and/or core."""
        raw = self._raw
        if len(raw) > self.capacity:
            raw = raw[-self.capacity :]
        out = [
            e if isinstance(e, TraceEvent) else TraceEvent(*e) for e in raw
        ]
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if core is not None:
            out = [e for e in out if e.core == core]
        return out

    def clear(self) -> None:
        """Drop all retained events (the drop/record counters persist)."""
        self._trimmed += len(self._raw)
        self._raw.clear()


class JsonlSink:
    """Streams events as JSON Lines to ``path`` (or a file-like object)."""

    def __init__(self, path_or_file: Union[str, io.TextIOBase]):
        if isinstance(path_or_file, (str, bytes)):
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
            self.path: Optional[str] = str(path_or_file)
        else:
            self._file = path_or_file
            self._owns_file = False
            self.path = getattr(path_or_file, "name", None)
        self.written = 0

    def record(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.as_dict(), sort_keys=True))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()


class ChromeTraceSink:
    """Accumulates Chrome trace-event JSON and writes it on ``close``.

    Mapping from simulator events to the trace-event format:

    - ``<kind>_begin`` / ``<kind>_end`` pairs (matched by their
      ``id``/``vpn`` argument on the same core+track) become one
      complete ``"X"`` span; unmatched halves degrade to instants.
    - ``span`` events (:mod:`repro.obs.spans` request-tree nodes)
      become ``"X"`` slices named by their ``op`` arg, plus paired
      ``"s"``/``"f"`` flow events binding parent to child slices (the
      arrows Perfetto draws along the request's causal chain); the
      ``flow_out``/``flow_in`` args carry the shared flow ids.
    - Events with ``dur`` set become ``"X"`` spans directly.
    - Counter kinds become ``"C"`` counter samples.
    - Everything else becomes a thread-scoped instant ``"i"``.

    One trace-event *process* per simulated core, one *thread* per
    track; ``process_name``/``thread_name`` metadata events label them
    for Perfetto.  Timestamps are simulated cycles (Perfetto displays
    them as microseconds; only relative placement matters).
    """

    def __init__(self, path_or_file: Union[str, io.TextIOBase]):
        self._path_or_file = path_or_file
        self._events: List[Dict[str, Any]] = []
        self._open_spans: Dict[tuple, TraceEvent] = {}
        self._tids: Dict[tuple, int] = {}
        self._named_pids: set = set()
        self.path = path_or_file if isinstance(path_or_file, str) else None
        self.closed = False

    # -- track bookkeeping ---------------------------------------------

    def _tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is not None:
            return tid
        if pid not in self._named_pids:
            self._named_pids.add(pid)
            self._events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"core{pid}" if pid >= 0 else "machine"},
                }
            )
        tid = sum(1 for (p, _t) in self._tids if p == pid)
        self._tids[key] = tid
        self._events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
        return tid

    # -- event mapping -------------------------------------------------

    def _emit(
        self,
        name: str,
        ph: str,
        ts: int,
        pid: int,
        tid: int,
        args: Dict[str, Any],
        dur: Optional[int] = None,
    ) -> None:
        out: Dict[str, Any] = {
            "name": name,
            "ph": ph,
            "ts": ts,
            "pid": pid,
            "tid": tid,
        }
        if dur is not None:
            out["dur"] = dur
        if ph == "i":
            out["s"] = "t"  # thread-scoped instant
        if args:
            out["args"] = dict(args)
        self._events.append(out)

    def _record_span(self, event: TraceEvent, pid: int, tid: int) -> None:
        """One request-tree node: an ``"X"`` slice plus flow bindings."""
        args = dict(event.args)
        name = args.pop("op", "span")
        flow_in = args.pop("flow_in", None)
        flow_out = args.pop("flow_out", None)
        self._emit(name, "X", event.cycle, pid, tid, args, dur=event.dur or 0)
        # Flow events must share name+cat+id to pair; the start point
        # sits at the parent slice's begin, the finish at the child's.
        if flow_in is not None:
            self._events.append(
                {
                    "name": "span_flow",
                    "cat": "span",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_in,
                    "ts": event.cycle,
                    "pid": pid,
                    "tid": tid,
                }
            )
        for fid in flow_out if flow_out is not None else ():
            self._events.append(
                {
                    "name": "span_flow",
                    "cat": "span",
                    "ph": "s",
                    "id": fid,
                    "ts": event.cycle,
                    "pid": pid,
                    "tid": tid,
                }
            )

    def record(self, event: TraceEvent) -> None:
        pid = event.core
        tid = self._tid(pid, event.track)
        kind = event.kind
        if kind == SPAN:
            self._record_span(event, pid, tid)
            return
        if kind.endswith("_begin"):
            base = kind[: -len("_begin")]
            self._open_spans[(base, pid, event.track, event.span_id)] = event
            return
        if kind.endswith("_end"):
            base = kind[: -len("_end")]
            begin = self._open_spans.pop(
                (base, pid, event.track, event.span_id), None
            )
            if begin is not None:
                args = dict(begin.args)
                args.update(event.args)
                self._emit(
                    base,
                    "X",
                    begin.cycle,
                    pid,
                    tid,
                    args,
                    dur=max(0, event.cycle - begin.cycle),
                )
            else:
                self._emit(kind, "i", event.cycle, pid, tid, event.args)
            return
        if kind in COUNTER_KINDS:
            numeric = {
                k: v
                for k, v in event.args.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            self._emit(kind, "C", event.cycle, pid, tid, numeric or {"value": 0})
            return
        if event.dur is not None:
            self._emit(kind, "X", event.cycle, pid, tid, event.args, dur=event.dur)
            return
        self._emit(kind, "i", event.cycle, pid, tid, event.args)

    def close(self) -> None:
        if self.closed:
            return
        # Spans whose end never arrived (e.g. a truncated run) degrade
        # to instants rather than being silently lost.
        for (base, pid, track, _span), begin in sorted(
            self._open_spans.items(), key=lambda kv: kv[1].cycle
        ):
            self._emit(
                f"{base}_begin",
                "i",
                begin.cycle,
                pid,
                self._tid(pid, track),
                begin.args,
            )
        self._open_spans.clear()
        if isinstance(self._path_or_file, (str, bytes)):
            with open(self._path_or_file, "w", encoding="utf-8") as f:
                json.dump(self._events, f)
        else:
            json.dump(self._events, self._path_or_file)
        self.closed = True
