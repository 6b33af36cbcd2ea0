"""gspc-report: collection sniffing, report sections, and the CLI."""

import json
import os
import re
from types import SimpleNamespace

import pytest

from repro.obs.manifest import (
    experiment_manifest,
    sim_manifest,
    sweep_manifest,
    timing_manifest,
)
from repro.obs.report import collect, main, render_report
from repro.obs.tracing import make_event
from repro.obs.traceexport import build_chrome_trace, write_trace_file
from repro.sweep.journal import seal

RUN_ID = "gspc-sweep-abc123def456"
JOB_A = "sim:DMC:f0:lru:llc8"
JOB_B = "sim:DMC:f0:drrip:llc8"


@pytest.fixture()
def run_dir(tmp_path):
    """A synthetic sweep directory: manifest + journal + trace file."""
    directory = tmp_path / "sweep"
    directory.mkdir()

    manifest = sweep_manifest(
        {"name": "tiny"},
        sweep={
            "name": "tiny", "total_jobs": 3, "completed": 3, "failed": 0,
            "resumed": 0, "workers": 2,
        },
        metrics={
            JOB_A: {
                "policy": "lru", "llc_mb": 8, "accesses": 1000,
                "metrics": {"misses": 100, "hit_rate": 0.9},
            },
            JOB_B: {
                "policy": "drrip", "llc_mb": 8, "accesses": 1000,
                "metrics": {"misses": 80, "hit_rate": 0.92},
            },
        },
        jobs=[
            {"job": JOB_A, "status": "ok", "attempts": 1,
             "executed_attempts": 1, "resumed": False},
            {"job": JOB_B, "status": "ok", "attempts": 2,
             "executed_attempts": 2, "resumed": False},
        ],
        wall_seconds=4.0,
    )
    with open(directory / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)

    records = [
        {"v": 1, "job": JOB_A, "status": "ok", "attempt": 1,
         "seconds": 2.0, "unix": 1000.0, "payload": {"job": JOB_A}},
        {"v": 1, "job": JOB_B, "status": "failed", "attempt": 1,
         "kind": "crash", "error": "worker crashed", "unix": 1001.0},
        {"v": 1, "job": JOB_B, "status": "ok", "attempt": 2,
         "seconds": 2.5, "unix": 1004.0, "payload": {"job": JOB_B}},
    ]
    with open(directory / "journal.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(seal(record) + "\n")

    ctx = {"run_id": RUN_ID}
    events = [
        make_event("sweep", 1000.0, 5.0, pid=10, ctx=ctx),
        make_event("sim", 1000.5, 2.0, pid=11,
                   ctx={**ctx, "job_id": JOB_A}),
        make_event("replay", 1001.0, 1.0, pid=11, path="sim/replay",
                   ctx={**ctx, "job_id": JOB_A}),
        make_event("sim", 1002.0, 2.5, pid=12,
                   ctx={**ctx, "job_id": JOB_B, "attempt": 2}),
    ]
    write_trace_file(
        build_chrome_trace(
            events, RUN_ID, process_names={10: "gspc-sweep orchestrator"}
        ),
        str(directory / "trace.json"),
    )
    return str(directory)


def test_collect_sniffs_every_kind(run_dir):
    data = collect([run_dir])
    assert data.problems == []
    assert len(data.manifests) == 1
    assert len(data.traces) == 1
    assert len(data.journals) == 1
    [(_, records)] = data.journals
    assert len(records) == 3  # verified, in append order


def test_collect_reports_missing_and_invalid_inputs(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kind": "sweep"}')  # invalid manifest
    data = collect([str(tmp_path / "nothere"), str(bogus)])
    assert data.empty
    assert len(data.problems) == 2
    assert any("no such file" in problem for problem in data.problems)


def test_report_sections(run_dir):
    report = render_report(collect([run_dir]))
    assert "Run overview" in report
    assert "tiny: 3/3 jobs ok" in report
    assert f"run {RUN_ID}: 4 spans across 3 process(es)" in report
    # Phase breakdown prefers the trace file; mean and max per phase.
    assert "Phase breakdown" in report
    assert "sim/replay" in report
    # Throughput joins manifest payloads with journal seconds.
    assert "Per-policy throughput" in report
    assert "lru" in report and "drrip" in report
    # Utilization: one row per pid, orchestrator named.
    assert "Worker utilization" in report
    assert "gspc-sweep orchestrator" in report
    assert "busy time is the union of each process's root spans" in report
    # Retry timeline shows the failed attempt and both successes.
    assert "Attempt timeline" in report
    assert "crash: worker crashed" in report
    assert "+0.00s" in report and "+4.00s" in report


def _per_run(report):
    """Per-run results rows as {run: [cells after Source and Kind]}."""
    section = report[report.index("Per-run results"):].split("\n\n")[0]
    rows = [re.split(r"\s{2,}", line.strip())
            for line in section.splitlines()[4:]]
    return {row[2]: row[1:2] + row[3:] for row in rows}


def _utilization(report):
    """Worker utilization rows as {process: [pid, spans, busy s, %]}."""
    section = report[report.index("Worker utilization"):].split("\n\n")[0]
    rows = [re.split(r"\s{2,}", line.strip())
            for line in section.splitlines()[4:]
            if not line.startswith("note:")]
    return {row[0]: row[1:] for row in rows}


def test_utilization_is_the_union_of_overlapping_root_spans(tmp_path):
    """An orchestrator's attempt spans overlap its sweep span and each
    other; its busy time is their union, never more than the wall."""
    ctx = {"run_id": RUN_ID}
    events = [
        make_event("sweep", 1000.0, 3.0, pid=10, ctx=ctx),
        make_event("sim:a", 1002.0, 2.0, pid=10, ctx=ctx),
        make_event("sim:b", 1006.0, 1.0, pid=10, ctx=ctx),
        make_event("plan", 1000.0, 0.5, pid=10, path="sweep/plan", ctx=ctx),
        make_event("sim", 1000.0, 10.0, pid=11, ctx=ctx),
    ]
    path = str(tmp_path / "trace.json")
    write_trace_file(
        build_chrome_trace(
            events, RUN_ID, process_names={10: "gspc-sweep orchestrator"}
        ),
        path,
    )
    rows = _utilization(render_report(collect([path])))
    # Sweep [0, 3] + attempts [2, 4] and [6, 7]: 5 s of a 10 s wall,
    # where summing the three root spans would read 6 s.
    assert rows["gspc-sweep orchestrator"] == ["10", "4", "5.000", "50.0%"]
    assert rows["worker 11"] == ["11", "1", "10.000", "100.0%"]


def test_collect_reads_each_file_once(run_dir):
    """A directory and files inside it, named together, count once."""
    named = [
        run_dir,
        os.path.join(run_dir, "trace.json"),
        os.path.join(run_dir, "journal.jsonl"),
        os.path.join(run_dir, ".", "manifest.json"),
    ]
    data = collect(named)
    assert data.problems == []
    assert (len(data.manifests), len(data.traces), len(data.journals)) == (
        1, 1, 1
    )
    report = render_report(data)
    assert f"run {RUN_ID}: 4 spans across 3 process(es)" in report
    assert render_report(collect([run_dir])) == report


def test_unreadable_journal_is_a_warning(run_dir, monkeypatch, capsys):
    from repro import wal
    from repro.errors import WALError

    def unreadable(path, validator=None):
        raise WALError(f"cannot read WAL {path}: injected")

    monkeypatch.setattr(wal, "replay", unreadable)
    assert main([run_dir]) == 0  # the manifest and trace still report
    captured = capsys.readouterr()
    assert "warning: cannot read WAL" in captured.err
    assert "Attempt timeline" not in captured.out


def test_per_run_rows_for_every_run_kind(run_dir):
    """One row per offline-sim / frame-timing / experiment manifest, one
    per sweep sim job plus a sweep summary row; floats to four
    significant digits; unrelated JSON in a scanned directory skipped."""
    sim = sim_manifest(SimpleNamespace(
        setup_seconds=0.5, replay_seconds=2.0, policy="drrip",
        accesses=1000, trace_meta={"name": "DMC#f0"}, extras={},
        stats=SimpleNamespace(snapshot=lambda: {
            "accesses": 1000, "hits": 750, "misses": 250,
            "hit_rate": 0.75, "per_stream": {},
        }),
    ))
    timing = timing_manifest(
        SimpleNamespace(
            setup_seconds=0.25, replay_seconds=4.0, policy="gspc",
            accesses=1000,
            to_dict=lambda: {"accesses": 1000, "misses": 200},
        ),
        trace_meta={"name": "DMC#f0"},
    )
    experiment = experiment_manifest("fig12", "LLC misses", elapsed_seconds=3.0)
    for name, manifest in (
        ("offline-sim.json", sim),
        ("frame-timing.json", timing),
        ("experiment.json", experiment),
        ("spec.json", {"name": "not a manifest"}),
    ):
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

    data = collect([run_dir])
    assert data.problems == []
    rows = _per_run(render_report(data))
    assert rows == {
        "DMC#f0/drrip": ["offline-sim", "1000", "250", "0.75", "0.5", "2",
                         "500"],
        "DMC#f0/gspc": ["frame-timing", "1000", "200", "-", "0.25", "4",
                        "250"],
        "fig12": ["experiment", "-", "-", "-", "0", "3", "-"],
        JOB_A: ["sweep", "1000", "100", "0.9", "-", "-", "-"],
        JOB_B: ["sweep", "1000", "80", "0.92", "-", "-", "-"],
        "tiny [3/3 ok, 0 failed]": ["sweep", "2000", "180", "-", "-", "4",
                                    "500"],
    }


def test_throughput_math(run_dir):
    report = render_report(collect([run_dir]))
    # lru: 1000 accesses over 2.0 journal seconds = 500/s.
    lru_line = next(
        line for line in report.splitlines()
        if line.strip().startswith("lru")
    )
    assert "500" in lru_line


def test_cli_writes_report_file(run_dir, tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    assert main([run_dir, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "Run overview" in printed
    with open(out, "r", encoding="utf-8") as handle:
        assert "Run overview" in handle.read()


def test_cli_exit_codes(tmp_path, capsys):
    assert main([str(tmp_path / "empty-nothing")]) == 1  # nothing usable
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 1


def test_cli_accepts_single_trace_file(run_dir, capsys):
    assert main([os.path.join(run_dir, "trace.json")]) == 0
    out = capsys.readouterr().out
    assert "Worker utilization" in out
    assert "Per-policy throughput" not in out  # no manifest given
