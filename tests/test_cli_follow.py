"""``repro analyze --follow``: the rolling window table and the final report."""

import re

import pytest

from repro.cli import main
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads.archive import characterize_archive, save_run


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("follow") / "run"
    run = run_workload(WorkloadSpec("giraph", "datagen", "pr", preset="tiny", seed=1))
    save_run(run.system_run, directory)
    return directory


def _follow(archive, *extra):
    return main(["analyze", str(archive), "--follow", "--follow-timeout", "0.1", *extra])


def test_final_report_equals_analyze(archive, capsys):
    assert main(["analyze", str(archive)]) == 0
    batch = capsys.readouterr().out
    assert _follow(archive) == 0
    assert capsys.readouterr().out.endswith(batch)


def test_one_row_per_window(archive, capsys):
    assert _follow(archive, "--window", "0.02") == 0
    out = capsys.readouterr().out
    n_windows = -(-characterize_archive(archive).grid.n_slices // 2)
    printed = re.findall(r"^window +(\d+) +\[", out, flags=re.M)
    table_rows = re.findall(r"^(\d+) +\d+\.\d+-\d+\.\d+ ", out, flags=re.M)
    assert printed == table_rows == [str(k) for k in range(n_windows)]
    assert f"Live analysis — {n_windows} windows" in out


def test_missing_archive_exits_2(tmp_path):
    assert _follow(tmp_path / "missing") == 2
