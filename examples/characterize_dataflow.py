#!/usr/bin/env python
"""Characterize a Spark-like dataflow job — the paper's §V extension.

The paper's discussion section describes ongoing work extending Grade10
beyond graph processing to DAG-based data processing systems like Spark.
This example exercises that path end to end:

1. run a shuffled join job (diamond stage DAG) on the simulated dataflow
   engine — stage dependencies travel through the logs as instance-level
   ``depends_on`` edges;
2. characterize it with Grade10: task phases demand exactly one core,
   shuffles demand the NIC;
3. read off the classic dataflow pathologies: skew-induced task
   stragglers, the shuffle wall on the network, and the stage critical
   path.

Run:  python examples/characterize_dataflow.py
"""

from repro.adapters import parse_execution_trace
from repro.core import Grade10, render_report
from repro.core.critical_path import critical_path
from repro.systems.sparklike import join_job, run_sparklike
from repro.viz import bar_chart, timeline
from repro.workloads import analysis_inputs


def main() -> None:
    job = join_job()
    print(f"Running dataflow job {job.name!r} "
          f"({len(job.stages)} stages: {', '.join(s.name for s in job.stages)}) ...")
    run = run_sparklike(job, seed=1)
    print(f"  makespan {run.makespan:.2f}s\n")

    model, resources, rules = analysis_inputs(run)
    trace = parse_execution_trace(run.log)
    rtrace = run.recorder.sample(0.4, t_end=run.makespan)
    g10 = Grade10(model, resources, rules, slice_duration=0.02, min_phase_duration=0.05)
    profile = g10.characterize(trace, rtrace)

    print("Stage timeline:")
    stages = sorted(trace.instances("/Job/Stage"), key=lambda i: i.t_start)
    print(
        timeline(
            [(f"stage{k}", s.t_start, s.t_end) for k, s in enumerate(stages)],
            t0=0.0,
            t1=run.makespan,
        )
    )

    print(render_report(profile))

    cp = critical_path(trace, model)
    print("Critical path (which work actually gates the makespan):")
    print(bar_chart(cp.time_by_phase_type(), width=40, fmt="{:.2f}s"))
    print(f"path work explains {cp.fraction_of_makespan():.0%} of the makespan; "
          f"the rest is waiting between its segments")


if __name__ == "__main__":
    main()
