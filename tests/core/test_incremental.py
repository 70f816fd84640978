"""Differential suite for the streaming incremental profile.

The headline invariants (module docstring of :mod:`repro.core.incremental`):
feeding a run's JSONL log in chunks of *any* size — one-event chunks,
fixed byte chunks that split records mid-byte, a missing trailing
newline — converges to an attribution/bottleneck output bit-identical to
the one-shot batch pipeline, on all three golden systems; and the windows
streamed before and at ``finalize()`` equal the batch report cut by slice
range (:func:`~repro.core.incremental.cut_windows`).

Alongside the differential checks: Hypothesis properties over arbitrary
chunkings, fault parity over every shipped ``FaultSpec`` (degraded logs
degrade gracefully mid-stream — never a raw crash — and finalize agrees
with the batch path on the same perturbed archive), the watermark's
soundness on a Giraph log whose block records are out of time order, and
unit coverage of the live counters.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adapters.parsing import merge_blocking_into_resource_trace
from repro.core import IncrementalProfile, cut_windows, render_report
from repro.faults import apply_faults, fault_at, fault_names
from repro.systems.logging import write_jsonl
from repro.workloads import WorkloadSpec, analysis_inputs, run_workload
from repro.workloads.archive import ArchiveError, characterize_archive, save_run
from repro.workloads.runner import SYSTEMS, characterize_run

MONITORING_INTERVAL = 0.4


def _prepared(system):
    """One tiny run with everything both pipelines need, cached per system."""
    if system not in _prepared.cache:
        spec = WorkloadSpec(
            system=system, dataset="datagen", algorithm="pr", preset="tiny", seed=7
        )
        run = run_workload(spec)
        sr = run.system_run
        models = analysis_inputs(sr, tuned=True)
        buf = io.StringIO()
        write_jsonl(sr.log, buf)
        batch = characterize_run(sr, tuned=True, monitoring_interval=MONITORING_INTERVAL)
        _prepared.cache[system] = (sr, models, buf.getvalue(), batch)
    return _prepared.cache[system]


_prepared.cache = {}


def _incremental(system):
    """A fresh IncrementalProfile wired like the batch comparator."""
    sr, (model, resources, rules), text, _ = _prepared(system)
    inc = IncrementalProfile(model, resources, rules, include_gc_phases=True)
    rt = sr.recorder.sample(MONITORING_INTERVAL, t_end=sr.makespan)
    merge_blocking_into_resource_trace(sr.log, rt)
    inc.feed_resource_trace(rt)
    return inc, rt, text


def _assert_bit_identical(live, batch):
    """Attribution arrays, bottleneck tuples, and the rendered report."""
    assert sorted(live.attribution.resources()) == sorted(batch.attribution.resources())
    for name in batch.attribution.resources():
        ra, rb = live.attribution[name], batch.attribution[name]
        assert list(ra.instance_ids) == list(rb.instance_ids)
        assert ra.usage.tobytes() == rb.usage.tobytes()
        assert ra.demand.tobytes() == rb.demand.tobytes()
        assert ra.unattributed.tobytes() == rb.unattributed.tobytes()
    key = lambda b: (str(b.kind), b.instance_id, b.resource)
    live_b = [(str(b.kind), b.instance_id, b.resource, b.duration)
              for b in sorted(live.bottlenecks.bottlenecks, key=key)]
    batch_b = [(str(b.kind), b.instance_id, b.resource, b.duration)
               for b in sorted(batch.bottlenecks.bottlenecks, key=key)]
    assert live_b == batch_b
    assert render_report(live, extended=True) == render_report(batch, extended=True)


def _chunks_of(text, size):
    return [text[i:i + size] for i in range(0, len(text), size)]


class TestDifferentialConvergence:
    """Chunked streaming == one-shot batch, bit for bit, on all systems."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_whole_log_one_chunk(self, system):
        inc, rt, text = _incremental(system)
        inc.feed_text(text)
        _assert_bit_identical(inc.finalize(resource_trace=rt), _prepared(system)[3])

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_one_event_chunks(self, system):
        sr, _, _, batch = _prepared(system)
        inc, rt, _ = _incremental(system)
        for ev in sr.log.events:
            inc.feed([dict(ev)])
        _assert_bit_identical(inc.finalize(resource_trace=rt), batch)

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("size", [37, 1024])
    def test_mid_record_byte_splits(self, system, size):
        # 37 is prime and far below one record's length, so nearly every
        # chunk boundary lands mid-record.
        inc, rt, text = _incremental(system)
        for chunk in _chunks_of(text, size):
            inc.feed_text(chunk)
        _assert_bit_identical(inc.finalize(resource_trace=rt), _prepared(system)[3])

    def test_single_byte_chunks(self):
        inc, rt, text = _incremental("giraph")
        for ch in text:
            inc.feed_text(ch)
        _assert_bit_identical(inc.finalize(resource_trace=rt), _prepared("giraph")[3])

    def test_missing_trailing_newline(self):
        # The final record arrives unterminated; finalize must flush it.
        inc, rt, text = _incremental("giraph")
        for chunk in _chunks_of(text.rstrip("\n"), 256):
            inc.feed_text(chunk)
        live = inc.finalize(resource_trace=rt)
        assert inc.events_ingested == len(_prepared("giraph")[0].log.events)
        _assert_bit_identical(live, _prepared("giraph")[3])

    def test_rebuilt_resource_trace_matches_given(self):
        # finalize(None) reconstructs the trace from fed measurements and
        # the log's blocking events — same profile as passing it in.
        inc, rt, text = _incremental("giraph")
        inc.feed_text(text)
        _assert_bit_identical(inc.finalize(), _prepared("giraph")[3])


class TestChunkInvarianceProperty:
    """Hypothesis: ANY chunking yields a byte-identical final report."""

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_arbitrary_chunking(self, system, data):
        _, _, text, batch = _prepared(system)
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=4096), max_size=200)
        )
        inc, rt, _ = _incremental(system)
        cursor = 0
        for size in sizes:
            if cursor >= len(text):
                break
            inc.feed_text(text[cursor:cursor + size])
            cursor += size
        if cursor < len(text):
            inc.feed_text(text[cursor:])
        live = inc.finalize(resource_trace=rt)
        assert render_report(live, extended=True) == render_report(batch, extended=True)


class TestFaultParity:
    """Chunked ingest of a perturbed archive degrades like the batch path."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fault-parity")
        spec = WorkloadSpec(
            system="giraph", dataset="datagen", algorithm="pr",
            preset="tiny", seed=3,
        )
        run = run_workload(spec)
        save_run(run.system_run, root / "source")
        return root

    @pytest.mark.parametrize("fault", fault_names())
    def test_parity_under_fault(self, archive, fault):
        from repro.cluster.monitor import read_monitoring_csv
        from repro.core.model_io import load_models

        dest = archive / f"perturbed-{fault}"
        apply_faults(archive / "source", dest, [fault_at(fault, 0.3)], seed=0)

        try:
            batch = characterize_archive(dest)
            batch_error = None
        except ArchiveError as exc:
            batch, batch_error = None, exc

        model, resources, rules = load_models(dest / "models.json")
        inc = IncrementalProfile(model, resources, rules, include_gc_phases=True)
        inc.feed_resource_trace(read_monitoring_csv(dest / "monitoring.csv"))
        # Mid-stream ingest must never crash on a degraded log, whatever
        # the fault did to it — feed() is the no-crash surface.
        text = (dest / "events.jsonl").read_text()
        for chunk in _chunks_of(text, 113):
            inc.feed_text(chunk)

        if batch_error is not None:
            # The batch path refused the archive; the incremental path
            # must fail just as gracefully — a typed error, not a crash.
            with pytest.raises((ValueError, KeyError, TypeError)):
                inc.finalize()
        else:
            _assert_bit_identical(inc.finalize(), batch)


def _windows_key(windows, slice_duration=0.01):
    """Per window: index, bounds, row count, and each bottleneck's share.

    A share is keyed ``(kind, instance_id, resource)`` and valued
    ``(slices, seconds)``: the slice count of a saturation or exact-cap
    share as an integer (its seconds are the count times the slice
    width), ``None`` for a blocking share.
    """
    out = []
    for w in windows:
        shares = {
            (b.kind, b.instance_id, b.resource): (
                None if b.kind == "blocking" else round(b.duration / slice_duration),
                b.duration,
            )
            for b in w.bottlenecks
        }
        assert len(shares) == len(w.bottlenecks), "a bottleneck listed twice in one window"
        out.append((w.index, w.t_start, w.t_end, w.n_rows, shares))
    return out


def _golden_cell(system, interval):
    """A golden cell's models, log text, monitoring and batch profile."""
    key = (system, interval)
    if key not in _golden_cell.cache:
        sr = run_workload(WorkloadSpec(system, "graph500", "pr", preset="tiny")).system_run
        buf = io.StringIO()
        write_jsonl(sr.log, buf)
        rt = sr.recorder.sample(interval, t_end=sr.makespan)
        merge_blocking_into_resource_trace(sr.log, rt)
        batch = characterize_run(sr, tuned=True, monitoring_interval=interval)
        _golden_cell.cache[key] = (analysis_inputs(sr, tuned=True), buf.getvalue(), rt, batch)
    return _golden_cell.cache[key]


_golden_cell.cache = {}


class TestWindowsEqualBatchCut:
    """Streamed windows == the batch profile's report cut by slice range."""

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_chunking(self, system, data):
        interval = data.draw(st.sampled_from([0.01, 0.03, 0.4]), label="interval")
        width = data.draw(st.integers(min_value=1, max_value=4), label="width")
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=2048), max_size=100)
        )
        (model, resources, rules), text, rt, batch = _golden_cell(system, interval)
        windows = []
        inc = IncrementalProfile(
            model, resources, rules, include_gc_phases=True,
            window_slices=width, on_window=windows.append,
        )
        inc.feed_resource_trace(rt)
        cursor = 0
        for size in sizes:
            inc.feed_text(text[cursor:cursor + size])
            cursor += size
        inc.feed_text(text[cursor:])
        inc.finalize(resource_trace=rt)
        expected = cut_windows(batch.bottlenecks, batch.execution_trace, width)
        assert _windows_key(windows) == _windows_key(expected)


@pytest.fixture(scope="module")
def giraph_small_streamed():
    """giraph/graph500/pr small seed 1 fed event by event, one-slice windows.

    Giraph writes a GC pause's ``block_end`` when the pause starts and a
    queue stall's ``block_start`` when the stall ends, so its block
    records are out of time order.  Every record that arrives with a
    timestamp before the end of an already-sealed window is collected.
    """
    sr = run_workload(
        WorkloadSpec("giraph", "graph500", "pr", preset="small", seed=1)
    ).system_run
    rt = sr.recorder.sample(MONITORING_INTERVAL, t_end=sr.makespan)
    merge_blocking_into_resource_trace(sr.log, rt)
    model, resources, rules = analysis_inputs(sr, tuned=True)
    windows, behind = [], []
    inc = IncrementalProfile(
        model, resources, rules, include_gc_phases=True,
        window_slices=1, on_window=windows.append,
    )
    inc.feed_resource_trace(rt)
    for ev in sr.log.events:
        if windows and ev["t"] < windows[-1].t_end:
            behind.append(ev)
        inc.feed([dict(ev)])
    n_streamed = len(windows)
    inc.finalize(resource_trace=rt)
    batch = characterize_run(sr, tuned=True, monitoring_interval=MONITORING_INTERVAL)
    return windows, n_streamed, behind, batch


class TestGiraphSmallEventByEvent:
    """The watermark holds on out-of-order block records; windows equal batch."""

    def test_no_record_behind_a_sealed_window(self, giraph_small_streamed):
        windows, n_streamed, behind, _ = giraph_small_streamed
        assert n_streamed > len(windows) // 2, "too few windows sealed mid-stream"
        assert behind == []

    def test_windows_equal_batch_cut(self, giraph_small_streamed):
        windows, _, _, batch = giraph_small_streamed
        expected = cut_windows(batch.bottlenecks, batch.execution_trace, 1)
        assert _windows_key(windows) == _windows_key(expected)

    def test_shares_sum_to_batch_totals(self, giraph_small_streamed):
        windows, _, _, batch = giraph_small_streamed
        streamed, totals = {}, {}
        for w in windows:
            for b in w.bottlenecks:
                key = (b.resource, b.kind)
                streamed[key] = streamed.get(key, 0.0) + b.duration
        for b in batch.bottlenecks:
            key = (b.resource, b.kind.value)
            totals[key] = totals.get(key, 0.0) + b.duration
        assert streamed == pytest.approx(totals, rel=1e-9, abs=1e-12)


class TestLivePlane:
    """Windows cut while streaming: monotone counters, sane summaries."""

    def _streamed(self, window_slices=2):
        sr, (model, resources, rules), text, _ = _prepared("giraph")
        windows, observed = [], []
        inc = IncrementalProfile(
            model, resources, rules,
            include_gc_phases=True, window_slices=window_slices,
            on_window=windows.append, on_bottleneck=observed.append,
        )
        rt = sr.recorder.sample(MONITORING_INTERVAL, t_end=sr.makespan)
        merge_blocking_into_resource_trace(sr.log, rt)
        inc.feed_resource_trace(rt)
        for chunk in _chunks_of(text, 512):
            inc.feed_text(chunk)
        inc.finalize(resource_trace=rt)
        return inc, windows, observed

    def test_windows_cover_the_run(self):
        inc, windows, _ = self._streamed()
        assert inc.windows_analyzed == len(windows) >= 2
        assert [w.index for w in windows] == list(range(len(windows)))
        for earlier, later in zip(windows, windows[1:]):
            assert later.t_start == pytest.approx(earlier.t_end)

    def test_bottleneck_seconds_fold(self):
        # Summing the per-observation durations per (resource, kind)
        # reproduces the cumulative counter exactly — the invariant the
        # RunStatus /metrics fold depends on.
        inc, _, observed = self._streamed()
        assert observed, "tiny giraph run produced no live observations"
        folded = {}
        for b in observed:
            key = (b.resource, b.kind)
            folded[key] = folded.get(key, 0.0) + b.duration
        assert folded == pytest.approx(inc.bottleneck_seconds)
        assert inc.last_bottleneck is observed[-1]

    def test_window_summary_to_dict(self):
        _, windows, _ = self._streamed()
        doc = windows[0].to_dict()
        assert set(doc) == {
            "index", "t_start", "t_end", "n_rows", "bottlenecks", "lag_seconds",
        }
        for entry in doc["bottlenecks"]:
            assert set(entry) == {
                "kind", "instance_id", "phase_path", "resource",
                "duration", "window",
            }

    def test_lag_shrinks_to_zero_after_finalize(self):
        inc, _, _ = self._streamed()
        assert inc.lag_seconds == pytest.approx(0.0, abs=inc.slice_duration)

    def test_feed_after_finalize_raises(self):
        inc, _, _ = self._streamed()
        with pytest.raises(RuntimeError):
            inc.feed_text("{}\n")
        with pytest.raises(RuntimeError):
            inc.finalize()

    def test_window_slices_validation(self):
        _, (model, resources, rules), _, _ = _prepared("giraph")
        with pytest.raises(ValueError):
            IncrementalProfile(model, resources, rules, window_slices=0)
