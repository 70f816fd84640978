"""One characterization path: in memory, from an archive, cold or warm.

Grade10 characterizes a run from its files, so the profile of a run in
memory (:func:`~repro.workloads.runner.characterize_run`) and the profile
of its archive (:func:`~repro.workloads.archive.characterize_archive`)
must be the same profile, tuned or untuned.  The batch engine relies on
it: a cold cell characterizes its run in memory and only a warm cell
reads the archive.  Equality here is exact ``==`` on the full export,
series included.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.cli import main
from repro.core.export import profile_to_dict
from repro.parallel import CellSpec, execute_cell
from repro.workloads import SYSTEMS, WorkloadSpec, characterize_run, dataset_names, run_workload
from repro.workloads.archive import characterize_archive, save_run


def _run_vs_archive(spec: WorkloadSpec, tuned: bool) -> tuple[dict, dict]:
    run = run_workload(spec)
    in_memory = profile_to_dict(characterize_run(run, tuned=tuned), series=True)
    with tempfile.TemporaryDirectory() as tmp:
        archived = characterize_archive(save_run(run.system_run, Path(tmp)), tuned=tuned)
    return in_memory, profile_to_dict(archived, series=True)


@settings(max_examples=50, deadline=None)
@given(
    system=st.sampled_from(SYSTEMS),
    dataset=st.sampled_from(dataset_names()),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    seed=st.integers(min_value=0, max_value=2**16),
    tuned=st.booleans(),
)
def test_archive_profile_equals_in_memory_profile(system, dataset, algorithm, seed, tuned):
    spec = WorkloadSpec(system, dataset, algorithm, preset="tiny", seed=seed)
    in_memory, archived = _run_vs_archive(spec, tuned)
    assert archived == in_memory


@pytest.mark.parametrize("system", SYSTEMS)
def test_golden_cells_agree_across_paths(system):
    """The golden-profile cells (graph500/pr, tiny, seed 0, tuned)."""
    in_memory, archived = _run_vs_archive(
        WorkloadSpec(system, "graph500", "pr", preset="tiny", seed=0), True
    )
    assert archived == in_memory


_ONE_CELL_PER_SYSTEM = [
    WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=3),
    WorkloadSpec("powergraph", "datagen", "cdlp", preset="tiny", seed=3),
    WorkloadSpec("sparklike", "graph500", "bfs", preset="tiny", seed=3),
]


@pytest.mark.parametrize("spec", _ONE_CELL_PER_SYSTEM, ids=lambda s: s.system)
def test_cold_cells_skip_the_archive_and_match_the_warm_cell(spec, tmp_path, monkeypatch):
    cell = CellSpec(spec, characterize=True)

    def no_archive_reads(*args, **kwargs):
        raise AssertionError("a cold cell read an archive")

    with monkeypatch.context() as patch:
        patch.setattr("repro.workloads.archive.load_run", no_archive_reads)
        cold_cached = execute_cell(cell, tmp_path)
        cold_uncached = execute_cell(cell, None)
    warm = execute_cell(cell, tmp_path)

    assert cold_cached.trace_hit is False and cold_uncached.trace_hit is None
    assert warm.trace_hit is True
    exported = [
        profile_to_dict(r.profile, series=True) for r in (cold_cached, cold_uncached, warm)
    ]
    assert exported[0] == exported[1] == exported[2]


@pytest.mark.parametrize(
    "preset, flags",
    [("small", []), ("tiny", ["--untuned"])],
    ids=["small-tuned", "tiny-untuned"],
)
def test_cli_run_prints_what_analyze_prints(preset, flags, tmp_path, capsys):
    archive = tmp_path / "archive"
    run_args = ["run", "giraph", "graph500", "pr", "--preset", preset, "--archive", str(archive)]
    assert main(run_args + flags) == 0
    run_out = capsys.readouterr().out
    assert main(["analyze", str(archive)] + flags) == 0
    assert capsys.readouterr().out == run_out
    # --follow ends with the same batch report
    assert main(["analyze", str(archive), "--follow", "--follow-timeout", "0.1"] + flags) == 0
    assert capsys.readouterr().out.endswith(run_out)
