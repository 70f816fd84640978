"""Tests for the CLI and the JSON profile export."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.export import profile_to_dict, write_profile_json
from repro.workloads import WorkloadSpec, characterize_run, run_workload


@pytest.fixture(scope="module")
def tiny_profile():
    run = run_workload(WorkloadSpec("giraph", "graph500", "pr", preset="tiny"))
    return characterize_run(run, tuned=True)


class TestExport:
    def test_summary_structure(self, tiny_profile):
        d = profile_to_dict(tiny_profile)
        assert d["makespan"] > 0
        assert d["grid"]["n_slices"] == tiny_profile.grid.n_slices
        assert "/Execute/Superstep/Compute/ComputeThread" in d["phase_types"]
        assert any(name.startswith("cpu@") for name in d["resources"])

    def test_consumption_totals_consistent(self, tiny_profile):
        d = profile_to_dict(tiny_profile)
        for name, entry in d["resources"].items():
            ur = tiny_profile.upsampled[name]
            expected = float(ur.rate.sum() * tiny_profile.grid.slice_duration)
            assert entry["total_consumption"] == pytest.approx(expected)

    def test_series_toggle(self, tiny_profile):
        with_series = profile_to_dict(tiny_profile, series=True)
        without = profile_to_dict(tiny_profile, series=False)
        any_resource = next(iter(with_series["resources"]))
        assert "utilization" in with_series["resources"][any_resource]
        assert "utilization" not in without["resources"][any_resource]

    def test_json_round_trip(self, tiny_profile, tmp_path):
        path = tmp_path / "profile.json"
        write_profile_json(tiny_profile, path)
        loaded = json.loads(path.read_text())
        assert loaded["makespan"] == pytest.approx(tiny_profile.makespan)
        # Everything in the export must be JSON-native.
        json.dumps(loaded)

    def test_bottleneck_totals_sorted_desc(self, tiny_profile):
        d = profile_to_dict(tiny_profile)
        for totals in d["bottleneck_totals"].values():
            values = list(totals.values())
            assert values == sorted(values, reverse=True)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "giraph", "graph500", "pr", "--preset", "tiny"])
        assert args.command == "run"
        args = parser.parse_args(["experiment", "table2"])
        assert args.artifact == "table2"

    def test_invalid_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spark", "graph500", "pr"])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "graph500" in out and "datagen" in out

    def test_systems_command(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "giraph" in out and "powergraph" in out

    def test_run_command_with_json(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        assert main(
            ["run", "giraph", "graph500", "pr", "--preset", "tiny", "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Grade10 performance profile" in out
        assert json.loads(path.read_text())["makespan"] > 0

    def test_run_untuned(self, capsys):
        assert main(["run", "giraph", "graph500", "pr", "--preset", "tiny", "--untuned"]) == 0
        assert "Grade10 performance profile" in capsys.readouterr().out

    def test_experiment_fig6(self, capsys):
        assert main(["experiment", "fig6", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Gather durations" in out

    def test_experiment_table2_tiny(self, capsys):
        assert main(["experiment", "table2", "--preset", "tiny"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_experiment_fig3_tiny(self, capsys):
        assert main(["experiment", "fig3", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "with-rules" in out and "without-rules" in out

    def test_experiment_fig4_tiny(self, capsys):
        assert main(["experiment", "fig4", "--preset", "tiny"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_experiment_fig5_tiny(self, capsys):
        assert main(["experiment", "fig5", "--preset", "tiny"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_analyze_extended(self, capsys, tmp_path):
        d = str(tmp_path / "run-ext")
        assert main(
            ["run", "giraph", "graph500", "pr", "--preset", "tiny", "--archive", d]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", d, "--extended"]) == 0
        out = capsys.readouterr().out
        assert "phase tree" in out
        assert "Recommendations" in out or "No recommendations" in out

    def test_archive_and_analyze_round_trip(self, capsys, tmp_path):
        d = str(tmp_path / "run")
        assert main(
            ["run", "giraph", "graph500", "pr", "--preset", "tiny", "--archive", d]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", d]) == 0
        assert "Grade10 performance profile" in capsys.readouterr().out

    def test_suite_command(self, capsys):
        assert main(["suite", "--preset", "tiny", "--systems", "giraph"]) == 0
        out = capsys.readouterr().out
        assert "EVPS" in out
        assert "giraph/graph500/pr" in out


class TestExportAtomicity:
    def test_interrupted_export_preserves_previous_profile(
        self, tiny_profile, tmp_path, monkeypatch
    ):
        """Regression: killing write_profile_json midway must not truncate.

        The export used to stream straight into the destination, so an
        interrupt left a half-written (unparseable) JSON file.  Now the
        write goes to a temp sibling and publishes via ``os.replace``.
        """
        import repro.ioutils as ioutils

        path = tmp_path / "profile.json"
        write_profile_json(tiny_profile, path)
        before = path.read_text()
        json.loads(before)  # the baseline export is valid JSON

        def killer(fh, text):
            fh.write(text[: len(text) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(ioutils, "_spill", killer)
        with pytest.raises(KeyboardInterrupt):
            write_profile_json(tiny_profile, path)
        assert path.read_text() == before
        assert sorted(tmp_path.iterdir()) == [path]  # no temp litter


class TestTracingCli:
    def test_run_with_trace_writes_chrome_trace(self, capsys, tmp_path):
        from repro.obs import final_counters, read_trace_events

        trace = tmp_path / "trace.json"
        assert main(
            ["run", "giraph", "graph500", "pr", "--preset", "tiny",
             "--trace", str(trace)]
        ) == 0
        events = read_trace_events(trace)
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"generate", "parse", "demand", "upsample", "attribute",
                "bottlenecks", "simulate"} <= names
        # Valid object-form Chrome trace, loadable as plain JSON too.
        doc = json.loads(trace.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert isinstance(final_counters(events), dict)

    def test_suite_with_trace_and_cache_counters(self, capsys, tmp_path):
        from repro.obs import final_counters, read_trace_events

        trace = tmp_path / "trace.json"
        assert main(
            ["suite", "--preset", "tiny", "--systems", "giraph", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache"), "--trace", str(trace)]
        ) == 0
        counters = final_counters(read_trace_events(trace))
        # Cold run: every cell is a miss, none a hit.
        assert counters.get("cache.trace.miss", 0) > 0
        assert counters.get("cache.trace.hit", 0) == 0

    def test_stats_command_reads_trace_back(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["run", "giraph", "graph500", "pr", "--preset", "tiny",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "generate" in out and "parse" in out
        assert "wall" in out.lower() or "%" in out

    def test_stats_sort_orders(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        main(["run", "giraph", "graph500", "pr", "--preset", "tiny",
              "--trace", str(trace)])
        capsys.readouterr()
        for order in ("total", "mean", "count", "name"):
            assert main(["stats", str(trace), "--sort", order]) == 0
            capsys.readouterr()

    def test_tracing_left_disabled_after_command(self):
        from repro import obs

        assert obs.current() is None

    def test_simulation_error_maps_to_exit_2(self, capsys, monkeypatch):
        """Typed simulation errors share the archive family's exit code."""
        from repro import cli
        from repro.core.simulation import UnknownInstanceError

        def boom(args):
            raise UnknownInstanceError("ss9-c9", ["ss0-c0", "ss0-c1"])

        monkeypatch.setattr(cli, "_cmd_systems", boom)
        assert main(["systems"]) == 2
        err = capsys.readouterr().err
        assert "ss9-c9" in err and "ss0-c0" in err

    def test_bench_command_writes_valid_doc(self, capsys, tmp_path):
        from repro.bench import validate_bench_doc

        out_path = tmp_path / "BENCH_pipeline.json"
        assert main(
            ["bench", "--preset", "tiny", "--systems", "giraph",
             "--repeats", "1", "--out", str(out_path)]
        ) == 0
        doc = json.loads(out_path.read_text())
        assert validate_bench_doc(doc) == []
        out = capsys.readouterr().out
        assert "giraph" in out


class TestStatsJson:
    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["run", "giraph", "graph500", "pr", "--preset", "tiny",
                     "--trace", str(path)]) == 0
        return path

    def test_json_payload_shape(self, trace, capsys):
        capsys.readouterr()
        assert main(["stats", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == str(trace)
        assert payload["wall_ms"] > 0
        stages = payload["stages"]
        assert stages["columns"][0] == "stage"
        names = [row[0] for row in stages["rows"]]
        assert "parse" in names and "generate" in names
        # Numbers stay numbers in the JSON renderer.
        for row in stages["rows"]:
            assert isinstance(row[1], int)
            assert isinstance(row[2], float)

    def test_json_and_text_agree_on_stage_set(self, trace, capsys):
        capsys.readouterr()
        assert main(["stats", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["stats", str(trace)]) == 0
        text = capsys.readouterr().out
        for row in payload["stages"]["rows"]:
            assert row[0] in text

    def test_counters_table_included(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["suite", "--preset", "tiny", "--systems", "giraph",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = {row[0]: row[1] for row in payload["counters"]["rows"]}
        assert counters.get("cache.trace.miss", 0) > 0
