"""Tests for the structured JSONL event log."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systems.logging import (
    EventLog,
    JsonlStream,
    iter_jsonl,
    read_jsonl,
    write_jsonl,
)

from ..core import oracles


class TestEventLog:
    def test_phase_lifecycle(self):
        log = EventLog()
        h = log.start_phase("/Load", 0.0, machine="m0")
        log.end_phase(h, 2.0)
        assert len(log) == 2
        starts = log.of_kind("phase_start")
        assert starts[0]["path"] == "/Load"
        assert starts[0]["machine"] == "m0"
        assert log.of_kind("phase_end")[0]["t"] == 2.0

    def test_unique_instance_ids(self):
        log = EventLog()
        h1 = log.start_phase("/P", 0.0)
        h2 = log.start_phase("/P", 0.0)
        assert h1.instance_id != h2.instance_id

    def test_parent_reference(self):
        log = EventLog()
        parent = log.start_phase("/A", 0.0)
        log.start_phase("/A/B", 0.0, parent=parent)
        assert log.of_kind("phase_start")[1]["parent"] == parent.instance_id

    def test_block_events(self):
        log = EventLog()
        h = log.start_phase("/P", 0.0)
        log.block(h, "gc@m0", 1.0, 2.0)
        assert log.of_kind("block_start")[0]["resource"] == "gc@m0"
        assert log.of_kind("block_end")[0]["t"] == 2.0

    def test_gc_event(self):
        log = EventLog()
        log.gc_event("m1", 3.0, 3.5)
        ev = log.of_kind("gc")[0]
        assert (ev["machine"], ev["t"], ev["t_end"]) == ("m1", 3.0, 3.5)

    def test_custom_event_requires_kind(self):
        log = EventLog()
        log.custom(event="checkpoint", t=1.0)
        with pytest.raises(ValueError):
            log.custom(t=1.0)

    def test_jsonl_round_trip(self):
        log = EventLog()
        h = log.start_phase("/P", 0.0, machine="m0", thread="t1")
        log.block(h, "q@m0", 0.5, 0.7)
        log.end_phase(h, 1.0)
        buf = io.StringIO()
        write_jsonl(log, buf)
        buf.seek(0)
        back = read_jsonl(buf)
        assert back.events == log.events

    def test_jsonl_file_round_trip(self, tmp_path):
        log = EventLog()
        log.start_phase("/P", 0.0)
        path = tmp_path / "events.jsonl"
        write_jsonl(log, path)
        assert read_jsonl(path).events == log.events

    def test_jsonl_skips_blank_lines(self):
        back = read_jsonl(io.StringIO('{"event":"gc","machine":"m0","t":0,"t_end":1}\n\n'))
        assert len(back) == 1

    def test_read_tolerates_partial_trailing_line(self):
        # What a reader sees racing a writer mid-record: the torn tail is
        # dropped, every terminated line is kept.
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}\n{"event":"ph'
        back = read_jsonl(io.StringIO(text))
        assert len(back) == 1
        assert back.events[0]["event"] == "gc"

    def test_read_keeps_unterminated_complete_record(self):
        # A writer that omitted the final newline still round-trips.
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}'
        back = read_jsonl(io.StringIO(text))
        assert len(back) == 1

    def test_strict_read_raises_on_partial_trailing_line(self):
        # Sealed archives opt in to strict mode: a torn tail there is
        # byte-level truncation, not a racing writer.
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}\n{"event":"ph'
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text), strict=True)

    def test_strict_read_keeps_unterminated_complete_record(self):
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}'
        assert len(read_jsonl(io.StringIO(text), strict=True)) == 1

    def test_read_raises_on_interior_malformed_line(self):
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}\nnot json\n'
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text))


class TestJsonlStream:
    def _log_text(self, n=5):
        log = EventLog()
        for k in range(n):
            h = log.start_phase(f"/P{k}", float(k), machine="m0")
            log.end_phase(h, k + 0.5)
        buf = io.StringIO()
        write_jsonl(log, buf)
        return log.events, buf.getvalue()

    def test_any_chunking_reconstructs_the_event_list(self):
        events, text = self._log_text()
        for size in (1, 3, 7, 64, len(text)):
            stream = JsonlStream()
            out = []
            for i in range(0, len(text), size):
                out.extend(stream.feed(text[i:i + size]))
            out.extend(stream.close())
            assert out == events, f"chunk size {size}"
            assert stream.pending == ""

    def test_feed_accepts_bytes(self):
        events, text = self._log_text(2)
        stream = JsonlStream()
        out = stream.feed(text.encode("utf-8"))
        out.extend(stream.close())
        assert out == events

    def test_pending_holds_the_fragment(self):
        stream = JsonlStream()
        assert stream.feed('{"event":"gc","t"') == []
        assert stream.pending == '{"event":"gc","t"'
        got = stream.feed(':1,"t_end":2,"machine":"m0"}\n')
        assert got == [{"event": "gc", "t": 1, "t_end": 2, "machine": "m0"}]
        assert stream.pending == ""

    def test_close_drops_torn_tail(self):
        stream = JsonlStream()
        stream.feed('{"event":"gc","t"')
        assert stream.close() == []
        assert stream.pending == ""

    def test_close_flushes_complete_unterminated_record(self):
        stream = JsonlStream()
        stream.feed('{"event":"gc","t":1,"t_end":2,"machine":"m0"}')
        assert stream.close() == [
            {"event": "gc", "t": 1, "t_end": 2, "machine": "m0"}
        ]

    def test_terminated_malformed_line_raises(self):
        stream = JsonlStream()
        with pytest.raises(ValueError):
            stream.feed("not json\n")


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([-0.0, 0.0, 1e-300, -1e308, float("nan"), float("inf"), float("-inf")])
    | st.floats()
    | st.text(alphabet=st.characters(), max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_events = st.lists(st.dictionaries(st.text(max_size=6), _json_values, max_size=4), max_size=6)

_RECORD = '{"event":"gc","machine":"m0","t":0,"t_end":1}'
_lines = st.one_of(
    _json_values.map(lambda v: json.dumps(v, ensure_ascii=False)),
    st.sampled_from(
        [
            _RECORD,
            "{} {}",
            "\ufeff" + _RECORD,
            "",
            "  \t",
            "\x0b",
            "\x85",
            "\x0b" + _RECORD + "\x85",
            "\x85" + _RECORD + " \r",
            '{"a":1',  # a record split across two lines ...
            '"b":2}',  # ... and its second half
            "not json",
            "[1, 2] x",
        ]
    ),
)


class TestJsonlOracles:
    """The shared decoder and encoder against per-line ``json.loads`` and
    per-event ``json.dumps`` (``tests/core/oracles.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_lines, max_size=8),
        st.booleans(),
        st.lists(st.integers(0, 400), max_size=6),
    )
    def test_any_chunking_decodes_like_json_loads_per_line(self, lines, terminated, cuts):
        text = "\n".join(lines) + ("\n" if terminated else "")
        expected, error = oracles.jsonl_events(text)
        bounds = sorted({min(c, len(text)) for c in cuts} | {0, len(text)})
        stream = JsonlStream()
        events = []
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                events.extend(stream.feed(text[lo:hi]))
            events.extend(stream.close())
        except json.JSONDecodeError as exc:
            assert str(exc) == error  # the chunk's earlier events go with it
        else:
            assert error is None
            assert json.dumps(events) == json.dumps(expected)

    @settings(max_examples=200, deadline=None)
    @given(_events)
    def test_write_jsonl_matches_per_event_dumps(self, events):
        buf = io.StringIO()
        write_jsonl(events, buf)
        assert buf.getvalue() == oracles.jsonl_text(events)

    def test_record_split_across_lines_is_rejected(self):
        with pytest.raises(json.JSONDecodeError, match="Expecting"):
            JsonlStream().feed('{"a":1\n"b":2}\n')
        with pytest.raises(json.JSONDecodeError, match="Extra data"):
            JsonlStream().feed("{} {}\n")


class TestIterJsonl:
    def test_streams_without_materializing(self, tmp_path):
        log = EventLog()
        for k in range(10):
            log.start_phase(f"/P{k}", float(k))
        path = tmp_path / "events.jsonl"
        write_jsonl(log, path)
        it = iter_jsonl(path, chunk_size=16)
        first = next(it)
        assert first == log.events[0]
        assert list(it) == log.events[1:]

    def test_tolerates_mid_write_tail(self, tmp_path):
        log = EventLog()
        log.start_phase("/P", 0.0)
        path = tmp_path / "events.jsonl"
        write_jsonl(log, path)
        with open(path, "a") as fh:
            fh.write('{"event":"phase_e')  # torn mid-write
        assert list(iter_jsonl(path)) == log.events
