"""Experiment plans on the sweep engine: job planning, execution,
serial/parallel result equivalence, and trace-cache race safety."""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.registry import available_policies
from repro.errors import ParallelError, TraceError
from repro.experiments.common import (
    ExperimentConfig,
    clear_result_caches,
    frame_characterization,
    frame_trace,
    get_experiment,
)
from repro.experiments.runner import parallel_section, run_plan
from repro.obs.manifest import validate_manifest
from repro.parallel import SimJob, plan_for_experiment, resolve_jobs
from repro.sim.offline import simulate_trace
from repro.trace import synth
from repro.trace.io import load_trace, save_trace

#: Tiny but multi-app experiment configuration.
TINY = ExperimentConfig(scale=0.03125, frames_per_app=1, cache_dir=None)


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    """``TINY`` over a module-wide trace cache (plans get trace jobs)."""
    cache = str(tmp_path_factory.mktemp("trace-cache"))
    return dataclasses.replace(TINY, cache_dir=cache)


@pytest.fixture(autouse=True)
def fresh_result_caches():
    """Every test starts and ends with empty in-process result caches,
    so nothing a plan seeds can leak into (or out of) another test."""
    clear_result_caches()
    yield
    clear_result_caches()


# -- --jobs resolution --------------------------------------------------------

def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_negative():
    with pytest.raises(ParallelError, match="--jobs must be >= 0"):
        resolve_jobs(-1)


def test_simjob_validation():
    with pytest.raises(ParallelError, match="unknown job kind"):
        SimJob("warp", "HAWX", 0)
    with pytest.raises(ParallelError, match="needs a policy"):
        SimJob("sim", "HAWX", 0)
    job = SimJob("sim", "HAWX", 2, "gspc+ucd")
    assert job.label == "sim HAWX f2 gspc+ucd"
    assert job.spec().app.abbrev == "HAWX"


# -- planning -----------------------------------------------------------------

def test_plan_covers_declared_policies_and_dedups():
    config = dataclasses.replace(TINY, cache_dir=".repro_cache")
    experiment = get_experiment("fig12")
    plan = plan_for_experiment(experiment, config)
    assert len(plan) == len(set(plan))
    kinds = [job.kind for job in plan]
    # Trace jobs strictly precede the sims.
    assert kinds.index("sim") == len([k for k in kinds if k == "trace"])
    frames = config.frames()
    assert sum(1 for job in plan if job.kind == "trace") == len(frames)
    policies = {job.policy for job in plan if job.kind == "sim"}
    assert policies == {"drrip", *experiment.sim_policies}
    # Deterministic: replanning yields the identical ordered list.
    assert plan == plan_for_experiment(experiment, config)


def test_plan_skips_trace_wave_without_cache():
    plan = plan_for_experiment(get_experiment("fig01"), TINY)
    assert plan and all(job.kind == "sim" for job in plan)


def test_plan_empty_for_metadata_experiments():
    assert plan_for_experiment(get_experiment("table6"), TINY) == []


def test_plan_characterization_jobs():
    plan = plan_for_experiment(get_experiment("fig07"), TINY)
    assert plan and all(job.kind == "char" for job in plan)
    assert {job.policy for job in plan} == {"belady"}


# -- serial vs parallel equivalence -------------------------------------------

def test_every_registered_policy_matches_serial(cached):
    """Worker-process SimResults equal in-process ones, per policy."""
    spec = cached.frames()[0]
    app, frame = spec.app.abbrev, spec.frame_index
    policies = available_policies()
    plan = [SimJob("trace", app, frame)] + [
        SimJob("sim", app, frame, policy) for policy in policies
    ]
    outcomes = run_plan(plan, cached, workers=2)
    assert [outcome.job for outcome in outcomes] == plan
    trace = frame_trace(spec, cached)
    for policy, outcome in zip(policies, outcomes[1:]):
        serial = simulate_trace(trace, policy, cached.llc())
        assert outcome.value.policy == serial.policy
        assert outcome.value.stats.snapshot() == serial.stats.snapshot()
        assert outcome.value.accesses == serial.accesses
        assert outcome.events == []  # no trace context -> no span events


def test_experiment_identical_after_parallel_prewarm(cached):
    """fig01 tables are byte-identical with and without the job engine."""
    experiment = get_experiment("fig01")
    serial_csv = [t.to_csv() for t in experiment.run(cached)]

    clear_result_caches()
    plan = plan_for_experiment(experiment, cached)
    outcomes = run_plan(plan, cached, workers=2)
    parallel_csv = [t.to_csv() for t in experiment.run(cached)]

    assert parallel_csv == serial_csv
    assert len(outcomes) == len(plan)
    assert all(outcome.seconds > 0 for outcome in outcomes)


def test_characterization_jobs_round_trip(cached):
    """fig07's char jobs ship FrameCharacterizations that seed the
    cache with exactly what an in-process characterization computes."""
    experiment = get_experiment("fig07")
    serial_csv = [t.to_csv() for t in experiment.run(cached)]
    spec = cached.frames()[0]
    serial_char = frame_characterization(spec, "belady", cached)

    clear_result_caches()
    plan = plan_for_experiment(experiment, cached)
    outcomes = run_plan(plan, cached, workers=2)
    shipped = {
        outcome.job: outcome.value
        for outcome in outcomes if outcome.job.kind == "char"
    }
    assert len(shipped) == len(cached.frames())
    seeded = frame_characterization(spec, "belady", cached)
    assert seeded is shipped[SimJob("char", spec.app.abbrev, 0, "belady")]
    assert seeded.trace_stats == serial_char.trace_stats
    assert seeded.tex_epochs == serial_char.tex_epochs
    assert seeded.z_epochs == serial_char.z_epochs
    assert seeded.llc_stats.snapshot() == serial_char.llc_stats.snapshot()
    assert [t.to_csv() for t in experiment.run(cached)] == serial_csv


def test_run_plan_outcomes_in_plan_order_and_progress_ordered(cached):
    plan = plan_for_experiment(get_experiment("fig08"), cached)[:6]
    seen = []
    outcomes = run_plan(plan, cached, workers=2, progress=seen.append)
    assert [outcome.job for outcome in outcomes] == list(plan)
    counters = [line.split("]", 1)[0] for line in seen]
    assert counters == [f"[{k}/{len(plan)}" for k in range(1, len(plan) + 1)]


def test_run_plan_sim_jobs_depend_on_their_frames_trace(cached, monkeypatch):
    """Each sim job waits for its frame's trace job; without a cache the
    plan has no trace jobs and the dangling edges are ignored."""
    from repro.sweep import exec as sweep_exec

    scheduled = []

    class Recording(sweep_exec.SweepRunner):
        def __init__(self, jobs, *args, **kwargs):
            scheduled.extend(jobs)
            super().__init__(jobs, *args, **kwargs)

    monkeypatch.setattr(sweep_exec, "SweepRunner", Recording)
    experiment = get_experiment("fig08")
    plan = [
        job for job in plan_for_experiment(experiment, cached)
        if job.app in ("DMC", "HAWX")
    ]
    assert len(run_plan(plan, cached, workers=2)) == len(plan) == 4
    for job in scheduled:
        if job.kind == "trace":
            assert job.deps == () and job.llc_mb == 0
        else:
            assert job.deps == (f"trace:{job.app}:f{job.frame_index}",)
            assert job.llc_mb == cached.llc_mb

    uncached = plan_for_experiment(experiment, TINY)[:2]
    assert [o.job for o in run_plan(uncached, TINY, workers=2)] == uncached


def test_run_policy_sims_returns_telemetry(cached):
    """A sim job run in a worker process returns its telemetry with the
    result: the job's wall time and the worker's flat span table (trace
    load, policy setup and replay under one root ``sim`` span), even
    without a trace context."""
    spec = cached.frames()[0]
    job = SimJob("sim", spec.app.abbrev, spec.frame_index, "drrip")
    [outcome] = run_plan([job], cached, workers=2)
    assert outcome.job == job
    assert outcome.seconds > 0
    assert set(outcome.spans) == {"sim", "sim/trace", "sim/setup", "sim/replay"}
    assert outcome.spans["sim"]["count"] == 1
    assert outcome.spans["sim"]["seconds"] >= outcome.spans["sim/replay"]["seconds"]
    assert outcome.events == []  # no trace context -> no span events


# -- cross-process span shipping ----------------------------------------------

def test_worker_spans_ship_across_processes(cached):
    """Span events recorded inside real worker processes come back with
    the parent run id stamped on them and export to a valid
    Chrome/Perfetto trace."""
    from repro.obs.tracing import TraceContext
    from repro.obs.traceexport import build_chrome_trace, validate_trace

    ctx = TraceContext.new_run("test")
    plan = plan_for_experiment(get_experiment("fig08"), cached)[:2]
    outcomes = run_plan(plan, cached, workers=2, trace_ctx=ctx)
    events = [event for outcome in outcomes for event in outcome.events]
    assert events, "workers shipped no span events"
    assert {e["ctx"]["run_id"] for e in events} == {ctx.run_id}
    assert all(e["pid"] != os.getpid() for e in events)
    assert validate_trace(build_chrome_trace(events, ctx.run_id)) == []


def test_run_jobs_ships_events_in_plan_order(cached):
    """Outcomes come back in plan order, each carrying its own job's
    events: stamped with that job's sweep id, under one root span named
    after its kind.  Without a trace context nothing is shipped."""
    from repro.obs.tracing import TraceContext

    ctx = TraceContext.new_run("test")
    plan = [
        job for job in plan_for_experiment(get_experiment("fig08"), cached)
        if job.app == "DMC"
    ]
    assert [job.kind for job in plan] == ["trace", "sim"]
    expected_ids = [
        plan[0].job_id, f"{plan[1].job_id}:llc{cached.llc_mb}",
    ]
    outcomes = run_plan(plan, cached, workers=2, trace_ctx=ctx)
    assert [outcome.job for outcome in outcomes] == plan
    for outcome, job_id in zip(outcomes, expected_ids):
        events = outcome.events
        assert events, f"{outcome.job.label} shipped no span events"
        assert {e["ctx"]["job_id"] for e in events} == {job_id}
        roots = [e for e in events if "/" not in e["path"]]
        assert [e["name"] for e in roots] == [outcome.job.kind]

    quiet = run_plan(plan, cached, workers=1)
    assert [outcome.job for outcome in quiet] == plan
    assert all(outcome.events == [] for outcome in quiet)


# -- manifest section ---------------------------------------------------------

def test_parallel_manifest_section_validates(cached):
    plan = plan_for_experiment(get_experiment("fig08"), cached)[:2]
    outcomes = run_plan(plan, cached, workers=2)
    section = parallel_section(2, 0.5, outcomes)
    assert section["workers"] == 2 and section["jobs"] == 2
    assert len(section["per_job"]) == 2
    assert section["serial_seconds_estimate"] > 0
    assert section["speedup"] == pytest.approx(
        section["serial_seconds_estimate"] / 0.5
    )

    from repro.obs.manifest import experiment_manifest

    manifest = experiment_manifest(
        "fig08", "t", config={}, elapsed_seconds=0.1, parallel=section
    )
    assert validate_manifest(manifest) == []


def test_parallel_manifest_section_rejects_garbage():
    from repro.obs.manifest import experiment_manifest

    manifest = experiment_manifest("fig08", "t", config={}, parallel={})
    problems = validate_manifest(manifest)
    assert any("parallel.workers" in p for p in problems)
    manifest["parallel"] = "not-a-mapping"
    assert any("'parallel'" in p for p in validate_manifest(manifest))


# -- trace-cache race safety --------------------------------------------------

def _race_frame_trace(cache_dir: str) -> int:
    config = ExperimentConfig(
        scale=0.03125, frames_per_app=1, cache_dir=cache_dir
    )
    spec = config.frames()[0]
    return len(frame_trace(spec, config))


def test_trace_cache_concurrent_writers(tmp_path):
    """Two processes racing on the same frame key both succeed and the
    cache entry stays loadable afterwards."""
    cache_dir = str(tmp_path / "cache")
    with ProcessPoolExecutor(max_workers=2) as pool:
        lengths = list(
            pool.map(_race_frame_trace, [cache_dir] * 4)
        )
    assert len(set(lengths)) == 1
    traces_dir = os.path.join(cache_dir, "traces")
    entries = os.listdir(traces_dir)
    assert len(entries) == 1  # no duplicate or leftover temp files
    reloaded = load_trace(os.path.join(traces_dir, entries[0]))
    assert len(reloaded) == lengths[0]


def _race_save(args) -> bool:
    path, seed = args
    trace = synth.cyclic_scan(64, 4)
    save_trace(trace, path)
    return True


def test_save_trace_atomic_under_racing_writers(tmp_path):
    path = str(tmp_path / "racy.npz")
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert all(pool.map(_race_save, [(path, i) for i in range(6)]))
    assert os.listdir(tmp_path) == ["racy.npz"]  # temp files cleaned up
    assert len(load_trace(path)) > 0


def test_save_trace_rejects_unknown_extension(tmp_path):
    trace = synth.cyclic_scan(32, 2)
    with pytest.raises(TraceError, match="unknown trace extension"):
        save_trace(trace, str(tmp_path / "noext"))
    assert os.listdir(tmp_path) == []  # nothing written on rejection
