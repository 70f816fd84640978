"""Extension bench: characterizing a DAG dataflow job (paper §V).

Not a paper artifact — this validates the §V extension end to end on the
three bundled dataflow workloads: Grade10 must see the shuffle wall on the
network, the skew-induced task stragglers, and a replay baseline close to
the observed makespan despite the instance-level stage DAG.
"""

from __future__ import annotations

from conftest import emit

from repro.adapters import parse_execution_trace
from repro.core import Grade10
from repro.core.critical_path import critical_path
from repro.systems.sparklike import etl_job, join_job, run_sparklike, wordcount_job
from repro.viz import format_table
from repro.workloads import analysis_inputs


def run_extension():
    rows = []
    results = {}
    for job_fn in (wordcount_job, join_job, etl_job):
        run = run_sparklike(job_fn(), seed=1)
        model, resources, rules = analysis_inputs(run)
        trace = parse_execution_trace(run.log)
        rtrace = run.recorder.sample(0.4, t_end=run.makespan)
        g10 = Grade10(model, resources, rules, slice_duration=0.02, min_phase_duration=0.05)
        profile = g10.characterize(trace, rtrace)
        cp = critical_path(trace, model)
        net_saturated = any(
            b.resource.startswith("net@") for b in profile.bottlenecks
        )
        stragglers = len(profile.outliers.affected_groups())
        rows.append(
            [
                run.job.name,
                f"{run.makespan:.2f}s",
                f"{profile.issues.baseline_makespan:.2f}s",
                "yes" if net_saturated else "no",
                stragglers,
                f"{cp.fraction_of_makespan():.0%}",
            ]
        )
        results[run.job.name] = (run.makespan, profile, stragglers, net_saturated)
    text = format_table(
        ["job", "observed", "replay", "shuffle wall", "straggler groups", "critical path"],
        rows,
        title="Extension — Grade10 on DAG dataflow jobs (paper Sec. V)",
    )
    return text, results


def test_extension_dataflow(benchmark, bench_output_dir):
    text, results = benchmark.pedantic(run_extension, rounds=1, iterations=1)
    emit(bench_output_dir, "extension_dataflow.txt", text)

    for name, (makespan, profile, stragglers, net_saturated) in results.items():
        # Replay fidelity within 10% despite instance-level stage DAGs.
        assert profile.issues.baseline_makespan == makespan * 1.0 or abs(
            profile.issues.baseline_makespan - makespan
        ) <= 0.10 * makespan, name
    # The skewed jobs produce detectable stragglers...
    assert results["join"][2] > 0
    # ...and the shuffle-heavy jobs saturate the network at least once.
    assert any(net for _, _, _, net in results.values())
