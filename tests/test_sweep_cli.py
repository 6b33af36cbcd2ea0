"""End-to-end gspc-sweep runs: tiny real sweeps, the exit-code
contract, crash/resume byte-equivalence, and every fault kind."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.obs.manifest import load_manifest, validate_manifest
from repro.obs.report import collect, render_report
from repro.sweep.cli import main

#: Small enough that a full sweep is a second or two.
BASE = [
    "--policies", "lru", "drrip",
    "--apps", "DMC",
    "--scale", "0.03125",
    "--backoff-base", "0.01",
]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("trace-cache"))


def run_cli(*argv):
    return main([str(arg) for arg in argv])


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def test_full_sweep_writes_artifacts(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    assert run_cli("--out", out, "--cache-dir", cache_dir, *BASE) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert validate_manifest(manifest) == []
    assert manifest["sweep"]["failed"] == 0
    assert manifest["sweep"]["total_jobs"] == 3  # 1 trace + 2 sims
    csv = read(os.path.join(out, "results.csv"))
    assert len(csv.strip().split("\n")) == 3  # header + 2 sims
    assert not os.path.exists(os.path.join(out, "failures.json"))
    # The journal replays clean: one attempt per job.
    assert all(
        entry["attempts"] == 1 and not entry["resumed"]
        for entry in manifest["jobs"]
    )


def test_usage_errors_exit_2(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    # A fresh sweep with no grid at all.
    assert run_cli("--out", out) == 2
    # Unknown policy, bad fault spec, bad timeout.
    assert run_cli("--out", out, "--policies", "nosuch") == 2
    assert run_cli(
        "--out", out, *BASE, "--inject-fault", "job=1,kind=meteor"
    ) == 2
    assert run_cli("--out", out, *BASE, "--timeout", "0") == 2
    # Resuming a directory that was never a sweep.
    assert run_cli("--resume", str(tmp_path / "nothere")) == 2


def test_fresh_out_refuses_existing_journal(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    assert run_cli("--out", out, "--cache-dir", cache_dir, *BASE) == 0
    assert run_cli("--out", out, "--cache-dir", cache_dir, *BASE) == 2


def test_crash_resume_equivalence(tmp_path, cache_dir, capsys):
    """The ISSUE's core contract: a sweep that crashes permanently on
    one job (exit 3), then resumes cleanly (exit 0), produces final
    artifacts byte-identical to an uninterrupted run — and the resumed
    invocation re-executes only the failed job."""
    clean = str(tmp_path / "clean")
    faulty = str(tmp_path / "faulty")
    assert run_cli("--out", clean, "--cache-dir", cache_dir, *BASE) == 0

    assert run_cli(
        "--out", faulty, "--cache-dir", cache_dir, *BASE,
        "--inject-fault", "job=2,kind=crash,attempt=*",
        "--max-attempts", "2",
    ) == 3
    report = json.loads(read(os.path.join(faulty, "failures.json")))
    assert report["failed_jobs"] == 1
    [(job_id, failure)] = report["failures"].items()
    assert failure["last_kind"] == "crash"
    assert failure["attempts"] == 2
    # Partial results: the CSV is missing exactly the failed sim.
    assert len(read(os.path.join(faulty, "results.csv")).strip().split("\n")) == 2

    assert run_cli("--resume", faulty, "--cache-dir", cache_dir) == 0
    assert read(os.path.join(faulty, "results.csv")) == read(
        os.path.join(clean, "results.csv")
    )
    clean_manifest = load_manifest(os.path.join(clean, "manifest.json"))
    resumed_manifest = load_manifest(os.path.join(faulty, "manifest.json"))
    assert resumed_manifest["metrics"] == clean_manifest["metrics"]
    assert resumed_manifest["config"] == clean_manifest["config"]
    # Completed jobs were not re-executed; only the crashed one ran.
    jobs = {entry["job"]: entry for entry in resumed_manifest["jobs"]}
    assert jobs[job_id]["executed_attempts"] == 1
    assert jobs[job_id]["attempts"] == 3
    for other_id, entry in jobs.items():
        if other_id != job_id:
            assert entry["resumed"] is True
            assert entry["executed_attempts"] == 0
    assert not os.path.exists(os.path.join(faulty, "failures.json"))


def test_family_crash_resume_equivalence(tmp_path, cache_dir):
    """The extended family presets (coherent/graph/compute) ride the
    sweep workload axis under the same crash/resume byte-equivalence
    contract as the Table 1 apps."""
    fam = [
        "--policies", "lru", "gspc",
        "--apps", "coh-hi", "graph-bfs", "comp-stream",
        "--scale", "0.03125",
        "--backoff-base", "0.01",
    ]
    clean = str(tmp_path / "clean")
    faulty = str(tmp_path / "faulty")
    assert run_cli("--out", clean, "--cache-dir", cache_dir, *fam) == 0
    # Plan: 3 trace jobs then 6 sims; ordinal 4 is a sim job.
    assert run_cli(
        "--out", faulty, "--cache-dir", cache_dir, *fam,
        "--inject-fault", "job=4,kind=crash,attempt=*",
        "--max-attempts", "2",
    ) == 3
    assert run_cli("--resume", faulty, "--cache-dir", cache_dir) == 0
    assert read(os.path.join(faulty, "results.csv")) == read(
        os.path.join(clean, "results.csv")
    )
    manifest = load_manifest(os.path.join(faulty, "manifest.json"))
    assert manifest["sweep"]["failed"] == 0
    assert manifest["sweep"]["total_jobs"] == 9
    assert not os.path.exists(os.path.join(faulty, "failures.json"))


def test_resume_rejects_conflicting_spec(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    assert run_cli("--out", out, "--cache-dir", cache_dir, *BASE) == 0
    assert run_cli(
        "--resume", out, "--cache-dir", cache_dir,
        "--policies", "lru",  # narrower grid than the journal's
        "--apps", "DMC", "--scale", "0.03125",
    ) == 2


def test_corrupt_payload_is_rejected_and_retried(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    assert run_cli(
        "--out", out, "--cache-dir", cache_dir, *BASE,
        "--inject-fault", "job=2,kind=corrupt",
    ) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    jobs = {entry["job"]: entry for entry in manifest["jobs"]}
    # Plan ordinal 2 is the first sim job: attempt 1 shipped a mangled
    # payload, the checksum rejected it, attempt 2 succeeded.
    victims = [e for e in jobs.values() if e["attempts"] == 2]
    assert len(victims) == 1 and victims[0]["status"] == "ok"
    # And its metrics match an untouched sibling run's shape.
    assert victims[0]["job"] in manifest["metrics"]


def test_hang_hits_timeout_and_retry_succeeds(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    assert run_cli(
        "--out", out, "--cache-dir", cache_dir, *BASE,
        "--inject-fault", "job=1,kind=hang",
        "--timeout", "1.5",
    ) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    victims = [e for e in manifest["jobs"] if e["attempts"] == 2]
    assert len(victims) == 1 and victims[0]["status"] == "ok"


def test_fault_spec_honoured_from_environment(tmp_path, cache_dir, monkeypatch):
    out = str(tmp_path / "sweep")
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC", "job=1,kind=crash,attempt=*"
    )
    assert run_cli(
        "--out", out, "--cache-dir", cache_dir, *BASE, "--max-attempts", "2"
    ) == 3


def test_traced_parallel_sweep_acceptance(tmp_path, cache_dir):
    """A --jobs 2 sweep with --trace-out produces one
    Chrome/Perfetto-loadable trace that validates, with spans from
    exactly its 2 worker pids, all correlated to the parent run id."""
    from repro.obs.traceexport import load_trace_file, validate_trace

    out = str(tmp_path / "sweep")
    trace_path = os.path.join(out, "trace.json")
    assert run_cli(
        "--out", out, "--cache-dir", cache_dir, *BASE,
        "--jobs", "2", "--trace-out", trace_path,
    ) == 0
    trace = load_trace_file(trace_path)
    assert validate_trace(trace) == []
    run_id = trace["metadata"]["run_id"]
    assert run_id.startswith("gspc-sweep-")

    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    # Orchestrator phases are present...
    names = {e["name"] for e in spans}
    assert {"sweep", "plan", "run", "reports"} <= names
    # ...plus one attempt span per job, in the orchestrator's track.
    orchestrator_pid = next(e["pid"] for e in spans if e["name"] == "sweep")
    attempts = [e for e in spans if e["name"].startswith("sim:")
                or e["name"].startswith("trace:")]
    assert len(attempts) == 3  # 1 trace + 2 sims
    assert all(e["pid"] == orchestrator_pid for e in attempts)
    worker_pids = {e["pid"] for e in spans} - {orchestrator_pid}
    assert len(worker_pids) == 2
    # Every span that names a run belongs to this run.
    assert {e["args"]["run_id"] for e in spans
            if "run_id" in e["args"]} == {run_id}
    # Worker-side spans carry job ids + attempt numbers for correlation.
    worker_spans = [e for e in spans if e["pid"] in worker_pids]
    assert worker_spans
    assert all(e["args"].get("job_id") for e in worker_spans)
    # gspc-report never reads a process as busy for longer than the run:
    # the orchestrator's attempt spans overlap its sweep span.
    report = render_report(collect([out]))
    section = report[report.index("Worker utilization"):].split("\n\n")[0]
    utilization = [float(cell) for cell in re.findall(r"(\d+\.\d)%", section)]
    assert len(utilization) == 3
    assert max(utilization) <= 100.0

    # Tracing must not perturb results: the CSV matches an untraced run.
    plain = str(tmp_path / "plain")
    assert run_cli("--out", plain, "--cache-dir", cache_dir, *BASE) == 0
    assert read(os.path.join(out, "results.csv")) == read(
        os.path.join(plain, "results.csv")
    )


def test_traced_sweep_counts_dropped_events(tmp_path, cache_dir, monkeypatch):
    """Orchestrator spans, attempt spans and the workers' events share
    the run recorder's one bound; the trace metadata counts the rest."""
    from repro.obs import spans as spans_module
    from repro.obs.traceexport import load_trace_file, validate_trace

    def traced(name):
        out = str(tmp_path / name)
        trace_path = os.path.join(out, "trace.json")
        assert run_cli(
            "--out", out, "--cache-dir", cache_dir, *BASE,
            "--trace-out", trace_path,
        ) == 0
        trace = load_trace_file(trace_path)
        assert validate_trace(trace) == []
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        return len(spans), trace["metadata"]["dropped_events"]

    recorded, dropped = traced("whole")
    assert dropped == 0
    # The workers' own recorders keep their handful of spans each.
    monkeypatch.setattr(spans_module, "MAX_EVENTS", 6)
    assert traced("bounded") == (6, recorded - 6)


def test_sweep_metrics_text_dump(tmp_path, cache_dir):
    out = str(tmp_path / "sweep")
    metrics_path = os.path.join(out, "metrics.prom")
    assert run_cli(
        "--out", out, "--cache-dir", cache_dir, *BASE,
        "--metrics-text", metrics_path,
    ) == 0
    with open(metrics_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert "# TYPE repro_sweep_jobs_total counter" in text
    assert "repro_sweep_jobs_total" in text
    assert "repro_sweep_attempt_seconds_count" in text
    assert 'run_id="gspc-sweep-' in text


def test_parallel_sweep_matches_serial_artifacts(tmp_path, cache_dir):
    serial = str(tmp_path / "serial")
    fanned = str(tmp_path / "fanned")
    assert run_cli("--out", serial, "--cache-dir", cache_dir, *BASE) == 0
    assert run_cli(
        "--out", fanned, "--cache-dir", cache_dir, *BASE, "--jobs", "2"
    ) == 0
    assert read(os.path.join(serial, "results.csv")) == read(
        os.path.join(fanned, "results.csv")
    )
    left = load_manifest(os.path.join(serial, "manifest.json"))
    right = load_manifest(os.path.join(fanned, "manifest.json"))
    assert left["metrics"] == right["metrics"]


#: ``BASE`` without its policies.
GRID = BASE[BASE.index("--apps"):]


def test_parameterized_policy_row_identical_across_engines(tmp_path, cache_dir):
    """A policy variant is a sweepable name; its results.csv row is the
    same on both engines apart from the engine column."""
    rows = {}
    for engine in ("reference", "fast"):
        out = str(tmp_path / engine)
        assert run_cli(
            "--out", out, "--cache-dir", cache_dir, *GRID,
            "--policies", "gspztc(t=4)", "--engine", engine,
        ) == 0
        header, row = read(os.path.join(out, "results.csv")).splitlines()
        rows[engine] = dict(zip(header.split(","), row.split(",")))
    assert rows["reference"].pop("engine") == "reference"
    assert rows["fast"].pop("engine") == "fast"
    assert rows["reference"] == rows["fast"]
    assert rows["fast"]["policy"] == "gspztc(t=4)"


@pytest.mark.parametrize(
    "policy", ["gspztc(t=8)", "gspztc(t=3)", "gspztc(t=4,counter_bits=6)"]
)
def test_unresolvable_policy_name_exits_2_before_any_job(tmp_path, policy, capsys):
    out = tmp_path / "sweep"
    assert run_cli("--out", out, *GRID, "--policies", policy) == 2
    assert "gspztc" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_paper_baselines_sweep_identically_on_both_engines(tmp_path, cache_dir):
    """GS-DRRIP, SHiP-mem and the bypass extension run on their kernels
    under the strict fast engine, with the reference engine's rows
    apart from the engine column."""
    policies = ["--policies", "gs-drrip", "ship-mem", "gspc+bypass"]
    rows = {}
    for engine in ("reference", "fast"):
        out = str(tmp_path / engine)
        assert run_cli(
            "--out", out, "--cache-dir", cache_dir, *GRID, *policies,
            "--engine", engine,
        ) == 0
        header, *lines = read(os.path.join(out, "results.csv")).splitlines()
        columns = header.split(",")
        rows[engine] = [dict(zip(columns, line.split(","))) for line in lines]
        assert {row.pop("engine") for row in rows[engine]} == {engine}
    assert rows["reference"] == rows["fast"]
    assert sorted(row["policy"] for row in rows["fast"]) == sorted(policies[1:])
