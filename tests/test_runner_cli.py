"""Experiment-runner CLI tests."""

import os

import pytest

from repro.experiments.common import clear_result_caches
from repro.experiments.runner import build_parser, main

#: fig01 at 1/32 scale: 12 trace jobs plus 36 sims under --jobs 2.
FIG01 = ["fig01", "--scale", "0.03125"]


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig12" in out and "table1" in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "Available experiments" in capsys.readouterr().out


def test_run_table1_with_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["table1", "--no-cache", "--csv", "out"]) == 0
    out = capsys.readouterr().out
    assert "Details of the DirectX applications" in out
    assert os.path.exists(tmp_path / "out" / "table1_0.csv")


def test_unknown_experiment_exits_2(capsys):
    assert main(["nonsense", "fig01", "alsobad"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment id(s): alsobad, nonsense" in err
    assert "valid ids:" in err and "fig01" in err


def test_progress_lines_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "metrics"
    assert main(
        ["table1", "--no-cache", "--metrics-out", str(out_dir)]
    ) == 0
    out = capsys.readouterr().out
    assert "[1/1] table1:" in out
    assert "completed in" in out
    files = os.listdir(out_dir)
    assert len(files) == 1 and files[0].startswith("experiment_table1")


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.frames_per_app == 1
    assert args.jobs == 1
    assert not args.full
    assert args.scale == pytest.approx(0.125)
    assert args.engine == "auto"


def test_unknown_engine_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig01", "--engine", "turbo"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_negative_jobs_rejected(capsys):
    assert main(["fig01", "--jobs", "-1"]) == 2
    assert "--jobs must be >= 0" in capsys.readouterr().err


def test_unwritable_csv_dir_fails_before_running(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["fig01", "--csv", str(blocker / "out")]) == 2
    captured = capsys.readouterr()
    assert "cannot create --csv directory" in captured.err
    # Failed up front: no experiment banner was printed.
    assert "[1/1] fig01" not in captured.out


def test_unwritable_metrics_dir_fails_before_running(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["fig01", "--metrics-out", str(blocker / "out")]) == 2
    assert "cannot create --metrics-out directory" in capsys.readouterr().err


def test_jobs_two_runs_and_records_parallel_manifest(tmp_path, capsys):
    import json

    monkey_dir = tmp_path / "work"
    monkey_dir.mkdir()
    cwd = os.getcwd()
    os.chdir(monkey_dir)
    try:
        assert main(
            ["fig08", "--scale", "0.03125", "--jobs", "2",
             "--csv", "csv", "--metrics-out", "metrics"]
        ) == 0
    finally:
        os.chdir(cwd)
    out = capsys.readouterr().out
    assert "parallel:" in out and "jobs over 2 workers" in out
    # Per-job progress counters appear in order.
    positions = [out.index(f"[{k}/") for k in range(1, 4)]
    assert positions == sorted(positions)
    [manifest_name] = os.listdir(monkey_dir / "metrics")
    manifest = json.loads((monkey_dir / "metrics" / manifest_name).read_text())
    parallel = manifest["parallel"]
    assert parallel["workers"] == 2
    assert parallel["jobs"] == len(parallel["per_job"])
    assert parallel["serial_seconds_estimate"] > 0


@pytest.fixture(scope="module")
def fig01_workdir(tmp_path_factory):
    """A work dir with a warm trace cache and fig01's serial CSVs."""
    workdir = tmp_path_factory.mktemp("fig01")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        clear_result_caches()
        assert main([*FIG01, "--jobs", "1", "--csv", "serial"]) == 0
    finally:
        clear_result_caches()
        os.chdir(cwd)
    return workdir


def _csvs(directory):
    return {
        name: (directory / name).read_text()
        for name in sorted(os.listdir(directory))
    }


def _run_parallel(workdir, name, monkeypatch, capsys):
    """fig01 under --jobs 2 with empty result caches; (code, out, csvs)."""
    monkeypatch.chdir(workdir)
    clear_result_caches()
    try:
        code = main([*FIG01, "--jobs", "2", "--csv", name])
    finally:
        clear_result_caches()
    return code, capsys.readouterr().out, _csvs(workdir / name)


def test_jobs_two_csvs_match_serial(fig01_workdir, monkeypatch, capsys):
    code, out, csvs = _run_parallel(
        fig01_workdir, "parallel", monkeypatch, capsys
    )
    assert code == 0
    assert "parallel: 48 jobs over 2 workers" in out
    assert csvs and csvs == _csvs(fig01_workdir / "serial")


def test_crashed_jobs_are_retried(fig01_workdir, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "job=sim:AssnCreed,kind=crash")
    code, out, csvs = _run_parallel(fig01_workdir, "retried", monkeypatch, capsys)
    assert code == 0
    assert "failed (crash" in out and "retry 2/3" in out
    assert "failed permanently" not in out
    assert csvs == _csvs(fig01_workdir / "serial")


def test_permanently_failed_jobs_fall_back_in_process(
    fig01_workdir, monkeypatch, capsys
):
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC", "job=sim:AssnCreed,kind=crash,attempt=*"
    )
    code, out, csvs = _run_parallel(
        fig01_workdir, "fallback", monkeypatch, capsys
    )
    assert code == 0
    assert out.count("FAILED permanently") == 3  # drrip, nru, belady
    assert "3 job(s) failed permanently; computing them in-process" in out
    assert csvs == _csvs(fig01_workdir / "serial")


def test_malformed_fault_spec_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "job=1,kind=explode")
    assert main(["fig01", "--jobs", "2"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_parser_full_flag():
    args = build_parser().parse_args(["fig01", "--full"])
    assert args.full and args.experiments == ["fig01"]
