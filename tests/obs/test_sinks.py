"""Trace sinks: ring bounding, JSONL line validity, Chrome schema."""

import io
import json

from repro.obs.events import (
    INTERVAL_SAMPLE,
    SPAN,
    TLB_LOOKUP,
    TLB_MISS_BEGIN,
    TLB_MISS_END,
    WALK_QUEUE,
    TraceEvent,
)
from repro.obs.sinks import ChromeTraceSink, JsonlSink, NullSink, RingBufferSink


def ev(kind=TLB_LOOKUP, cycle=0, core=0, track="tlb", dur=None, **args):
    return TraceEvent(kind, cycle, core, track, dur, args)


class TestNullSink:
    def test_absorbs_everything(self):
        sink = NullSink()
        sink.record(ev())
        sink.close()  # no file, no state — must not raise


class TestRingBufferSink:
    def test_bounded_capacity_keeps_newest(self):
        sink = RingBufferSink(capacity=4)
        for cycle in range(10):
            sink.record(ev(cycle=cycle))
        assert len(sink) == 4
        assert sink.recorded == 10
        assert sink.dropped == 6
        assert [e.cycle for e in sink.events()] == [6, 7, 8, 9]

    def test_filter_by_kind_and_core(self):
        sink = RingBufferSink()
        sink.record(ev(kind=TLB_LOOKUP, core=0))
        sink.record(ev(kind=WALK_QUEUE, core=0, depth=2))
        sink.record(ev(kind=TLB_LOOKUP, core=1))
        assert len(sink.events(kind=TLB_LOOKUP)) == 2
        assert len(sink.events(kind=TLB_LOOKUP, core=1)) == 1
        assert len(sink.events(core=0)) == 2

    def test_clear(self):
        sink = RingBufferSink()
        sink.record(ev())
        sink.clear()
        assert len(sink) == 0


class TestJsonlSink:
    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        sink.record(ev(cycle=5, vpn=0x40, hit=False))
        sink.record(ev(kind=WALK_QUEUE, cycle=9, depth=3))
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == TLB_LOOKUP
        assert first["cycle"] == 5
        assert first["args"]["vpn"] == 0x40
        assert json.loads(lines[1])["args"]["depth"] == 3
        assert sink.written == 2

    def test_accepts_open_file_without_closing_it(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.record(ev())
        sink.close()
        assert json.loads(buf.getvalue())["kind"] == TLB_LOOKUP


class TestChromeTraceSink:
    def run_sink(self, events):
        buf = io.StringIO()
        sink = ChromeTraceSink(buf)
        for event in events:
            sink.record(event)
        sink.close()
        return json.loads(buf.getvalue())

    def test_schema_keys_present_on_every_event(self):
        data = self.run_sink(
            [
                ev(cycle=1, vpn=2),
                ev(kind=WALK_QUEUE, cycle=2, depth=1),
                ev(kind=TLB_MISS_BEGIN, cycle=3, vpn=9),
                ev(kind=TLB_MISS_END, cycle=8, vpn=9),
            ]
        )
        assert isinstance(data, list) and data
        for entry in data:
            assert "name" in entry and "ph" in entry and "ts" in entry
        non_meta = [e for e in data if e["ph"] != "M"]
        for entry in non_meta:
            assert "pid" in entry and "tid" in entry

    def test_begin_end_pairs_become_complete_events(self):
        data = self.run_sink(
            [
                ev(kind=TLB_MISS_BEGIN, cycle=10, vpn=7),
                ev(kind=TLB_MISS_END, cycle=45, vpn=7),
            ]
        )
        spans = [e for e in data if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["ts"] == 10
        assert spans[0]["dur"] == 35
        assert spans[0]["name"] == "tlb_miss"

    def test_interleaved_spans_pair_by_id(self):
        data = self.run_sink(
            [
                ev(kind=TLB_MISS_BEGIN, cycle=0, vpn=1),
                ev(kind=TLB_MISS_BEGIN, cycle=2, vpn=2),
                ev(kind=TLB_MISS_END, cycle=30, vpn=2),
                ev(kind=TLB_MISS_END, cycle=50, vpn=1),
            ]
        )
        durs = sorted(e["dur"] for e in data if e["ph"] == "X")
        assert durs == [28, 50]

    def test_counter_kinds_become_counter_events(self):
        data = self.run_sink([ev(kind=WALK_QUEUE, cycle=4, depth=6)])
        counters = [e for e in data if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["args"] == {"depth": 6}

    def test_interval_sample_counters_keep_numeric_args_only(self):
        data = self.run_sink(
            [ev(kind=INTERVAL_SAMPLE, cycle=100, instructions=12, label="x")]
        )
        counter = next(e for e in data if e["ph"] == "C")
        assert counter["args"] == {"instructions": 12}

    def test_metadata_names_tracks_per_core(self):
        data = self.run_sink(
            [ev(cycle=1, core=0, track="tlb"), ev(cycle=2, core=1, track="tlb")]
        )
        meta = [e for e in data if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert "process_name" in names and "thread_name" in names
        pids = {e["pid"] for e in data if e["ph"] != "M"}
        assert pids == {0, 1}

    def test_unmatched_begin_degrades_to_instant(self):
        data = self.run_sink([ev(kind=TLB_MISS_BEGIN, cycle=3, vpn=5)])
        instants = [e for e in data if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["ts"] == 3

    def test_span_events_become_named_slices(self):
        data = self.run_sink(
            [ev(kind=SPAN, cycle=10, dur=30, op="ptw_queue", depth=3)]
        )
        slices = [e for e in data if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["name"] == "ptw_queue"
        assert slices[0]["ts"] == 10 and slices[0]["dur"] == 30
        # flow/op bookkeeping args are consumed, causes stay visible
        assert slices[0]["args"] == {"depth": 3}

    def test_span_flow_events_pair_by_id(self):
        data = self.run_sink(
            [
                ev(kind=SPAN, cycle=0, dur=50, op="translation",
                   flow_out=[1, 2]),
                ev(kind=SPAN, cycle=0, dur=10, op="tlb_probe", flow_in=1),
                ev(kind=SPAN, cycle=10, dur=40, op="memory", flow_in=2),
            ]
        )
        starts = [e for e in data if e["ph"] == "s"]
        finishes = [e for e in data if e["ph"] == "f"]
        assert {e["id"] for e in starts} == {1, 2}
        assert {e["id"] for e in finishes} == {1, 2}
        for e in starts + finishes:
            assert e["name"] == "span_flow" and e["cat"] == "span"
            assert "ts" in e and "pid" in e and "tid" in e
        # binding points: start at the parent's begin, finish at the
        # child's begin (bp="e" makes Perfetto attach to the slice).
        assert all(e["ts"] == 0 for e in starts)
        assert all(e["bp"] == "e" for e in finishes)
        assert {e["ts"] for e in finishes} == {0, 10}

    def test_close_is_idempotent(self):
        buf = io.StringIO()
        sink = ChromeTraceSink(buf)
        sink.record(ev())
        sink.close()
        first = buf.getvalue()
        sink.close()
        assert buf.getvalue() == first
