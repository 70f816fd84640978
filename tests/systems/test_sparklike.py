"""Tests for the Spark-like dataflow engine and its Grade10 integration."""

import pytest

from repro.adapters import parse_execution_trace
from repro.adapters.sparklike_model import sparklike_execution_model
from repro.core import Grade10
from repro.systems.sparklike import (
    SparkLikeConfig,
    SparkLikeJob,
    StageSpec,
    etl_job,
    join_job,
    run_sparklike,
    wordcount_job,
)
from repro.workloads import analysis_inputs


class TestJobValidation:
    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            SparkLikeJob("x", [StageSpec("a", 1, 1.0), StageSpec("a", 1, 1.0)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError):
            SparkLikeJob("x", [StageSpec("a", 1, 1.0, parents=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            SparkLikeJob(
                "x",
                [
                    StageSpec("a", 1, 1.0, parents=("b",)),
                    StageSpec("b", 1, 1.0, parents=("a",)),
                ],
            )

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            StageSpec("a", 0, 1.0)
        with pytest.raises(ValueError):
            StageSpec("a", 1, -1.0)
        with pytest.raises(ValueError):
            StageSpec("a", 1, 1.0, skew=0.5)

    def test_topological_order(self):
        job = join_job()
        order = [s.name for s in job.topological_stages]
        assert order.index("scan_a") < order.index("join") < order.index("agg")


class TestRunSparklike:
    def test_completes(self):
        run = run_sparklike(wordcount_job(scale=0.2))
        assert run.makespan > 0

    def test_deterministic(self):
        a = run_sparklike(join_job(scale=0.2), seed=3)
        b = run_sparklike(join_job(scale=0.2), seed=3)
        assert a.makespan == b.makespan
        assert a.log.events == b.log.events

    def test_stage_dependencies_in_log(self):
        run = run_sparklike(wordcount_job(scale=0.2))
        stage_starts = [
            e for e in run.log.of_kind("phase_start") if e["path"] == "/Job/Stage"
        ]
        assert len(stage_starts) == 2
        deps = [e.get("depends_on", []) for e in stage_starts]
        # The reduce stage depends on the map stage.
        assert any(len(d) == 1 for d in deps)

    def test_stages_respect_dag_order(self):
        run = run_sparklike(wordcount_job(scale=0.2))
        starts = {
            e["id"]: e["t"] for e in run.log.of_kind("phase_start") if e["path"] == "/Job/Stage"
        }
        ends = {e["id"]: e["t"] for e in run.log.of_kind("phase_end") if e["id"] in starts}
        ordered = sorted(starts, key=lambda i: starts[i])
        assert starts[ordered[1]] >= ends[ordered[0]] - 1e-9

    def test_shuffle_phases_emitted(self):
        run = run_sparklike(wordcount_job(scale=0.2))
        shuffles = [e for e in run.log.of_kind("phase_start") if e["path"].endswith("Shuffle")]
        assert len(shuffles) == 4  # one per machine for the map stage

    def test_task_count(self):
        run = run_sparklike(wordcount_job(scale=0.2))
        tasks = [e for e in run.log.of_kind("phase_start") if e["path"].endswith("Task")]
        assert len(tasks) == 32 + 16

    def test_cores_not_oversubscribed(self):
        """Concurrent stages queue for cores instead of sharing them."""
        cfg = SparkLikeConfig(n_machines=2, cores_per_machine=2)
        run = run_sparklike(etl_job(scale=0.3), cfg, seed=0)
        from repro.core.timeline import TimeGrid

        grid = TimeGrid.covering(0.0, run.makespan, 0.02)
        for m in run.machine_names:
            usage = run.recorder.rate_on_grid(f"cpu@{m}", grid)
            assert usage.max() <= cfg.cores_per_machine + 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SparkLikeConfig(n_machines=0)


class TestSparklikeCharacterization:
    @pytest.fixture(scope="class")
    def profile(self):
        run = run_sparklike(join_job(scale=0.5), seed=1)
        model, resources, rules = analysis_inputs(run)
        trace = parse_execution_trace(run.log)
        rtrace = run.recorder.sample(0.4, t_end=run.makespan)
        g10 = Grade10(model, resources, rules, slice_duration=0.02, min_phase_duration=0.05)
        return run, g10.characterize(trace, rtrace)

    def test_replay_close_to_observed(self, profile):
        run, prof = profile
        assert prof.issues.baseline_makespan == pytest.approx(run.makespan, rel=0.10)

    def test_task_skew_detected_as_imbalance_or_outliers(self, profile):
        _, prof = profile
        imb = [i for i in prof.issues if i.kind == "imbalance" and "Task" in i.subject]
        assert imb or prof.outliers.affected_groups()

    def test_cpu_bottlenecks_found(self, profile):
        _, prof = profile
        assert any(b.resource.startswith("cpu@") for b in prof.bottlenecks)

    def test_model_valid(self):
        sparklike_execution_model().validate()
