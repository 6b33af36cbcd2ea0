"""The sweep orchestrator: spec expansion, the crash-safe journal,
fault specs, retry/backoff scheduling, and resume equivalence.

Scheduler tests run against a scripted in-process launcher and a fake
clock, so the exact backoff schedule and timeout behaviour are pinned
without spawning processes or sleeping for real.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.faults import FaultSpec
from repro.obs import spans as spans_module
from repro.obs.manifest import sweep_manifest, validate_manifest
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext, make_event
from repro.sweep.exec import AttemptResult, RetryPolicy, SweepRunner
from repro.sweep.journal import (
    Journal,
    checksum,
    replay,
    seal,
    verify,
    write_atomic,
)
from repro.sweep.report import jobs_section, metrics_section, results_csv
from repro.sweep.spec import SweepJob, SweepSpec, expand
from repro.sweep.worker import load_result, result_filename


# -- spec ---------------------------------------------------------------------

def test_spec_roundtrip_and_expansion_order():
    spec = SweepSpec(
        name="s1",
        policies=("drrip", "lru"),
        llc_mb=(4, 8),
        apps=("DMC", "HAWX"),
        scale=0.0625,
    )
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    jobs = expand(spec)
    # Traces first, then sims; deterministic on re-expansion.
    kinds = [job.kind for job in jobs]
    assert kinds == ["trace"] * 2 + ["sim"] * 8
    assert jobs == expand(spec)
    # Every sim depends on exactly its frame's trace job.
    trace_ids = {job.job_id for job in jobs if job.kind == "trace"}
    for job in jobs:
        if job.kind == "sim":
            assert len(job.deps) == 1 and job.deps[0] in trace_ids
            assert job.deps[0].endswith(f"{job.app}:f{job.frame_index}")


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(name="bad name"), "sweep name"),
        (dict(policies=()), "at least one policy"),
        (dict(policies=("nosuch",)), "unknown policy"),
        (dict(policies=("lru", "lru")), "duplicate policies"),
        (dict(llc_mb=()), "at least one llc_mb"),
        (dict(llc_mb=(0,)), "positive ints"),
        (dict(llc_mb=(8, 8)), "duplicate llc_mb"),
        (dict(apps=("NotAnApp",)), "unknown app"),
        (dict(frames_per_app=0), "frames_per_app"),
        (dict(scale=0.0), "scale"),
        (dict(engine="warp"), "unknown engine"),
    ],
)
def test_spec_validation(kwargs, match):
    base = dict(name="ok", policies=("lru",))
    base.update(kwargs)
    with pytest.raises(SweepError, match=match):
        SweepSpec(**base)


def test_spec_accepts_parameterized_policy_names():
    spec = SweepSpec(name="ok", policies=("gspztc(t=4)", "gspztc(t=4)+ucd"))
    assert [job.policy for job in expand(spec) if job.kind == "sim"][:2] == [
        "gspztc(t=4)", "gspztc(t=4)+ucd",
    ]


@pytest.mark.parametrize(
    "policy, match",
    [
        # One spelling per policy: the default value resolves away.
        ("gspztc(t=8)", r"spelled as it resolves: 'gspztc'"),
        ("GSPC", r"spelled as it resolves: 'gspc'"),
        ("gspztc(t=3)", "power of two"),
        ("gspztc(t=4,counter_bits=6)", "malformed"),
    ],
)
def test_spec_refuses_policy_names_that_do_not_resolve_to_themselves(
    policy, match
):
    with pytest.raises(SweepError, match=match):
        SweepSpec(name="ok", policies=(policy,))


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(SweepError, match="unknown spec key"):
        SweepSpec.from_dict({"name": "x", "policies": ["lru"], "turbo": 1})
    with pytest.raises(SweepError, match="must be an object"):
        SweepSpec.from_dict(["lru"])


def test_sweep_job_validation():
    with pytest.raises(SweepError, match="unknown sweep job kind"):
        SweepJob("warp", "DMC", 0)
    with pytest.raises(SweepError, match="needs a policy"):
        SweepJob("sim", "DMC", 0)
    with pytest.raises(SweepError, match="char job needs a policy"):
        SweepJob("char", "DMC", 0, "belady")
    job = SweepJob("sim", "DMC", 0, "lru", 8)
    assert job.job_id == "sim:DMC:f0:lru:llc8"
    char = SweepJob("char", "DMC", 0, "belady", 8)
    assert char.job_id == "char:DMC:f0:belady:llc8"
    trace = SweepJob("trace", "DMC", 0)
    assert trace.job_id == "trace:DMC:f0" and trace.llc_mb == 0


# -- journal ------------------------------------------------------------------

def _ok_record(job_id, attempt=1, payload=None):
    return {
        "v": 1,
        "job": job_id,
        "status": "ok",
        "attempt": attempt,
        "seconds": 0.25,
        "payload": payload if payload is not None else {"job": job_id},
    }


def test_seal_verify_roundtrip_and_tamper_rejection():
    record = _ok_record("sim:a")
    line = seal(record)
    assert verify(json.loads(line)) == record
    assert verify(json.loads(line.replace('"ok"', '"OK"'))) is None
    assert verify("not a dict") is None
    assert verify({"v": 1}) is None


@pytest.mark.parametrize(
    "mutation",
    [
        {"v": 2},
        {"job": ""},
        {"status": "running"},
        {"attempt": 0},
        {"attempt": True},
        {"payload": "not-a-dict"},
    ],
)
def test_verify_rejects_invalid_bodies(mutation):
    record = dict(_ok_record("sim:a"), **mutation)
    assert verify({**record, "sha256": checksum(record)}) is None


def test_journal_append_and_replay(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with Journal(path) as journal:
        journal.append(
            {"v": 1, "job": "a", "status": "failed", "attempt": 1,
             "kind": "crash", "error": "boom"}
        )
        journal.append(_ok_record("a", attempt=2))
        journal.append(_ok_record("b"))
    state = replay(path)
    assert set(state.completed) == {"a", "b"}
    assert state.attempts == {"a": 2, "b": 1}
    assert state.failures == {}  # cleared by the later ok
    assert state.rejected_lines == 0


def test_replay_first_ok_wins_and_rejects_torn_tail(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    first = _ok_record("a", payload={"winner": 1})
    second = _ok_record("a", attempt=2, payload={"winner": 2})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(seal(first) + "\n")
        handle.write(seal(second) + "\n")
        handle.write(seal(_ok_record("b"))[:17])  # torn final line
    state = replay(path)
    assert state.completed["a"]["payload"] == {"winner": 1}
    assert "b" not in state.completed
    assert state.rejected_lines == 1


def test_replay_rejects_a_line_that_is_not_utf8(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with open(path, "wb") as handle:
        handle.write(seal(_ok_record("a")).encode("utf-8") + b"\n")
        handle.write(b"\xff\xfe" + seal(_ok_record("b")).encode("utf-8") + b"\n")
        handle.write(seal(_ok_record("c")).encode("utf-8")[:-2] + b"\xff}\n")
    state = replay(path)
    assert set(state.completed) == {"a"}
    assert state.rejected_lines == 2


def test_replay_missing_file_is_empty_state(tmp_path):
    state = replay(str(tmp_path / "nope.jsonl"))
    assert state.completed == {} and state.attempts == {}


def test_write_atomic_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    write_atomic(path, "hello\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    with open(path) as handle:
        assert handle.read() == "hello\n"


# -- fault specs --------------------------------------------------------------

def test_fault_spec_parse_and_match():
    fault = FaultSpec.parse("job=3,kind=crash")
    assert fault.matches(3, "sim:a", 1)
    assert not fault.matches(3, "sim:a", 2)  # default: attempt 1 only
    assert not fault.matches(2, "sim:a", 1)
    wild = FaultSpec.parse("job=sim:HAWX,kind=hang,attempt=*,hang_seconds=5")
    assert wild.hang_seconds == 5.0
    assert wild.matches(0, "sim:HAWX:f0:lru:llc8", 7)
    assert not wild.matches(0, "trace:DMC:f0", 1)
    assert "hang" in wild.describe()


@pytest.mark.parametrize(
    "text, match",
    [
        ("kind=crash", "needs at least job="),
        ("job=1,kind=meteor", "unknown fault kind"),
        ("job=1,kind=crash,attempt=zero", "positive integer"),
        ("job=1,kind=crash,mood=bad", "unknown fault field"),
        ("job=1,kind=", "malformed fault field"),
        ("job=1,kind=hang,hang_seconds=soon", "must be a number"),
    ],
)
def test_fault_spec_parse_rejects(text, match):
    with pytest.raises(SweepError, match=match):
        FaultSpec.parse(text)


def test_fault_spec_from_env():
    assert FaultSpec.from_env({}) is None
    fault = FaultSpec.from_env({"REPRO_FAULT_SPEC": "job=0,kind=corrupt"})
    assert fault.kind == "corrupt"


# -- retry policy -------------------------------------------------------------

def test_retry_policy_schedule():
    retry = RetryPolicy(max_attempts=4, backoff_base=0.5, backoff_mult=2.0,
                        backoff_max=1.5)
    assert retry.schedule() == (0.5, 1.0, 1.5)  # capped at backoff_max
    assert RetryPolicy(max_attempts=1).schedule() == ()


@pytest.mark.parametrize(
    "kwargs", [dict(max_attempts=0), dict(backoff_base=-1),
               dict(backoff_mult=0.5)],
)
def test_retry_policy_validation(kwargs):
    with pytest.raises(SweepError):
        RetryPolicy(**kwargs)


# -- the scheduler, with a scripted launcher and a fake clock -----------------

HANG = "hang"  # sentinel: poll never returns


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(round(seconds, 6))
        self.now += seconds


class FakeLauncher:
    """Scripted attempt outcomes: ``script[(job_id, attempt)]``.

    Unscripted attempts succeed immediately with a payload recording the
    attempt number.  A ``HANG`` entry makes ``poll`` return ``None``
    forever (until cancelled), driving the timeout path.
    """

    def __init__(self, script=None):
        self.script = dict(script or {})
        self.started = []
        self.cancelled = []

    def start(self, job, index, attempt):
        self.started.append((job.job_id, attempt))
        return (job, attempt)

    def poll(self, handle):
        job, attempt = handle
        outcome = self.script.get((job.job_id, attempt))
        if outcome is HANG:
            return None
        if outcome is not None:
            return outcome
        return AttemptResult(
            ok=True, payload={"job": job.job_id, "ran_attempt": attempt}
        )

    def cancel(self, handle):
        job, attempt = handle
        self.cancelled.append((job.job_id, attempt))


def _plan():
    return expand(
        SweepSpec(name="t", policies=("lru", "drrip"), llc_mb=(8,),
                  apps=("DMC",), scale=0.03125)
    )


def _runner(jobs, launcher, journal, **kwargs):
    clock = kwargs.pop("clock", FakeClock())
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, backoff_base=0.5))
    return clock, SweepRunner(
        jobs, launcher, journal, clock=clock, sleep=clock.sleep, **kwargs
    )


def test_runner_happy_path_respects_dag_order(tmp_path):
    jobs = _plan()
    launcher = FakeLauncher()
    with Journal(str(tmp_path / "j.jsonl")) as journal:
        _, runner = _runner(jobs, launcher, journal)
        outcome = runner.run()
    assert outcome.ok and len(outcome.completed) == len(jobs)
    assert outcome.executed == {job.job_id: 1 for job in jobs}
    # The trace job launched before any sim that depends on it.
    started = [job_id for job_id, _ in launcher.started]
    assert started.index("trace:DMC:f0") < min(
        started.index(job.job_id) for job in jobs if job.kind == "sim"
    )
    # Every attempt was journalled and replays to the same state.
    state = replay(str(tmp_path / "j.jsonl"))
    assert set(state.completed) == set(outcome.completed)


def test_runner_retry_backoff_schedule_is_exact(tmp_path):
    [job] = expand(
        SweepSpec(name="t", policies=("lru",), apps=("DMC",),
                  frames_per_app=1, scale=0.03125)
    )[:1]
    fail = AttemptResult(ok=False, kind="crash", error="boom")
    launcher = FakeLauncher({(job.job_id, 1): fail, (job.job_id, 2): fail})
    with Journal(str(tmp_path / "j.jsonl")) as journal:
        clock, runner = _runner([job], launcher, journal)
        outcome = runner.run()
    assert outcome.ok and outcome.attempts[job.job_id] == 3
    # The only sleeps are the two backoff delays, exactly.
    assert clock.sleeps == [0.5, 1.0]


def test_runner_permanent_failure_releases_dependents(tmp_path):
    jobs = _plan()
    trace_id = jobs[0].job_id
    fail = AttemptResult(ok=False, kind="crash", error="boom")
    launcher = FakeLauncher(
        {(trace_id, attempt): fail for attempt in (1, 2, 3)}
    )
    with Journal(str(tmp_path / "j.jsonl")) as journal:
        _, runner = _runner(jobs, launcher, journal)
        outcome = runner.run()
    assert not outcome.ok
    assert set(outcome.failures) == {trace_id}
    assert outcome.failures[trace_id]["kind"] == "crash"
    # Sims still ran (they regenerate the trace themselves).
    assert all(
        job.job_id in outcome.completed for job in jobs if job.kind == "sim"
    )


def test_runner_reports_each_successful_attempt(tmp_path):
    jobs = _plan()
    fail = AttemptResult(ok=False, kind="crash", error="boom")
    launcher = FakeLauncher({(jobs[1].job_id, 1): fail})
    seen = []
    with Journal(str(tmp_path / "j.jsonl")) as journal:
        _, runner = _runner(
            jobs, launcher, journal,
            on_result=lambda job, result: seen.append((job, result.payload)),
        )
        outcome = runner.run()
    # Once per job, with its successful attempt's result (never the
    # failed attempt), in completion order.
    assert outcome.ok
    assert sorted(job.job_id for job, _ in seen) == sorted(
        job.job_id for job in jobs
    )
    assert {job.job_id: payload for job, payload in seen} == outcome.completed
    assert dict(seen)[jobs[1]]["ran_attempt"] == 2


def test_runner_records_attempts_and_worker_events(tmp_path, monkeypatch):
    """Each finished attempt adds one orchestrator span (a failed one
    under ``attempt/<kind>``) and its worker's shipped events to the
    recorder the caller hands over, under the recorder's one bound."""
    jobs = _plan()
    ctx = TraceContext.new_run("t")

    def ok(job_id):
        worker_event = make_event(
            "sim", 1.0, 0.5, pid=4242, ctx=ctx.child(job_id).to_dict()
        )
        return AttemptResult(
            ok=True, payload={"job": job_id}, events=[worker_event]
        )

    retried = jobs[1].job_id
    script = {(job.job_id, 1): ok(job.job_id) for job in jobs}
    script[(retried, 1)] = AttemptResult(ok=False, kind="crash", error="boom")
    script[(retried, 2)] = ok(retried)

    def traced_run(journal_name, recorder):
        with Journal(str(tmp_path / journal_name)) as journal:
            _, runner = _runner(
                jobs, FakeLauncher(script), journal, spans=recorder
            )
            assert runner.run().ok
        return recorder.events_payload()

    quiet = SpanRecorder()  # not recording events: nothing is added
    assert traced_run("quiet.jsonl", quiet) == []

    recorder = SpanRecorder()
    recorder.enable_events(context=ctx)
    events = traced_run("j.jsonl", recorder)
    attempts = [e for e in events if e["pid"] == os.getpid()]
    assert sorted(
        (e["name"], e["args"]["attempt"], e["path"]) for e in attempts
    ) == sorted(
        [(job.job_id, 1, "attempt") for job in jobs if job.job_id != retried]
        + [(retried, 1, "attempt/crash"), (retried, 2, "attempt")]
    )
    for event in attempts:
        attempt = event["args"]["attempt"]
        assert event["ctx"] == ctx.child(event["name"], attempt).to_dict()
    # Each successful attempt's worker events, merged once.
    shipped = [e["ctx"]["job_id"] for e in events if e["pid"] == 4242]
    assert sorted(shipped) == sorted(job.job_id for job in jobs)
    assert recorder.dropped_events == 0

    # Past the bound, events are counted, never stored.
    monkeypatch.setattr(spans_module, "MAX_EVENTS", 5)
    bounded = SpanRecorder()
    bounded.enable_events(context=ctx)
    assert len(traced_run("bounded.jsonl", bounded)) == 5
    assert bounded.dropped_events == len(events) - 5


def test_runner_timeout_cancels_and_retries(tmp_path):
    [job] = _plan()[:1]
    launcher = FakeLauncher({(job.job_id, 1): HANG})
    with Journal(str(tmp_path / "j.jsonl")) as journal:
        clock, runner = _runner(
            [job], launcher, journal, timeout=2.0, poll_interval=0.5
        )
        outcome = runner.run()
    assert outcome.ok and outcome.attempts[job.job_id] == 2
    assert launcher.cancelled == [(job.job_id, 1)]
    state = replay(str(tmp_path / "j.jsonl"))
    assert state.attempts[job.job_id] == 2


def test_runner_resume_skips_completed_and_continues_attempts(tmp_path):
    jobs = _plan()
    path = str(tmp_path / "j.jsonl")
    crashed_id = jobs[-1].job_id
    with Journal(path) as journal:
        for job in jobs[:-1]:
            journal.append(_ok_record(job.job_id, payload={"job": job.job_id}))
        journal.append(
            {"v": 1, "job": crashed_id, "status": "failed", "attempt": 2,
             "kind": "crash", "error": "boom"}
        )
    launcher = FakeLauncher()
    with Journal(path) as journal:
        _, runner = _runner(jobs, launcher, journal)
        outcome = runner.run(replay(path))
    # Only the crashed job re-ran, with attempt numbering continued.
    assert launcher.started == [(crashed_id, 3)]
    assert outcome.executed == {crashed_id: 1}
    assert set(outcome.resumed) == {job.job_id for job in jobs[:-1]}
    assert outcome.attempts[crashed_id] == 3
    assert len(outcome.completed) == len(jobs)


def test_runner_rejects_bad_knobs(tmp_path):
    jobs = _plan()[:1]
    with Journal(str(tmp_path / "j.jsonl")) as journal:
        with pytest.raises(SweepError, match="worker count"):
            SweepRunner(jobs, FakeLauncher(), journal, workers=0)
        with pytest.raises(SweepError, match="timeout"):
            SweepRunner(jobs, FakeLauncher(), journal, timeout=0)


# -- hypothesis: any journal prefix resumes to identical results --------------

_PLAN = _plan()
_FULL_LINES = [
    seal(_ok_record(job.job_id, payload={"job": job.job_id, "n": i}))
    for i, job in enumerate(_PLAN)
]
_FULL_TEXT = "".join(line + "\n" for line in _FULL_LINES)


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(_FULL_TEXT)))
def test_truncated_journal_resumes_to_identical_results(tmp_path_factory, cut):
    """Kill the run at any byte: resume completes to the same payloads."""
    tmp_path = tmp_path_factory.mktemp("trunc")
    path = str(tmp_path / "j.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_FULL_TEXT[:cut])
    state = replay(path)
    # Replay is monotone: whatever survived is a prefix-consistent
    # subset of the full run, byte-for-byte the same payloads.
    full = replay_text(_FULL_TEXT, tmp_path)
    for job_id, record in state.completed.items():
        assert record == full.completed[job_id]
    # Resuming with a launcher that replays the full run's payloads
    # converges on exactly the uninterrupted result set.
    launcher = FakeLauncher(
        {
            (job.job_id, state.attempts.get(job.job_id, 0) + 1): AttemptResult(
                ok=True, payload={"job": job.job_id, "n": i}
            )
            for i, job in enumerate(_PLAN)
        }
    )
    with Journal(path) as journal:
        clock = FakeClock()
        runner = SweepRunner(
            _PLAN, launcher, journal, clock=clock, sleep=clock.sleep
        )
        outcome = runner.run(state)
    assert outcome.ok
    assert outcome.completed == full.completed_payloads
    # Journalled jobs were not re-executed.
    for job_id in state.completed:
        assert outcome.executed.get(job_id, 0) == 0


def replay_text(text, tmp_path):
    path = str(tmp_path / "full.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return replay(path)


# -- reports and the sweep manifest kind --------------------------------------

def _fake_outcome(jobs):
    from repro.sweep.exec import SweepOutcome

    payloads = {
        job.job_id: {
            "job": job.job_id,
            "kind": job.kind,
            "app": job.app,
            "frame": job.frame_index,
            "policy": job.policy,
            "llc_mb": job.llc_mb,
            "engine": "fast",
            "accesses": 100,
            "metrics": {"hits": 60, "misses": 40, "bypasses": 0,
                        "hit_rate": 0.6, "dram_reads": 40, "dram_writes": 5},
        }
        for job in jobs
    }
    return SweepOutcome(
        completed=payloads,
        attempts={job.job_id: 1 for job in jobs},
        executed={job.job_id: 1 for job in jobs},
        failures={},
        resumed=(),
        wall_seconds=1.0,
    )


def test_results_csv_in_plan_order_and_sims_only():
    jobs = _plan()
    outcome = _fake_outcome(jobs)
    text = results_csv(jobs, outcome.completed)
    lines = text.strip().split("\n")
    assert lines[0].startswith("app,frame,policy,llc_mb,engine,accesses")
    assert len(lines) == 1 + sum(1 for job in jobs if job.kind == "sim")
    assert "trace" not in text.split("\n", 1)[1]
    # Deterministic: identical on rebuild, rows in plan order.
    assert text == results_csv(jobs, outcome.completed)
    assert lines[1].split(",")[2] == "drrip"  # sorted before lru


def test_results_csv_omits_failed_jobs():
    jobs = _plan()
    outcome = _fake_outcome(jobs)
    victim = [job for job in jobs if job.kind == "sim"][0]
    full = results_csv(jobs, outcome.completed)
    del outcome.completed[victim.job_id]
    partial = results_csv(jobs, outcome.completed)
    assert (
        len(partial.strip().split("\n"))
        == len(full.strip().split("\n")) - 1
    )


def test_sweep_manifest_validates_and_rejects_garbage():
    jobs = _plan()
    outcome = _fake_outcome(jobs)
    manifest = sweep_manifest(
        {"name": "t"},
        sweep={"name": "t", "total_jobs": len(jobs), "completed": len(jobs),
               "failed": 0, "resumed": 0},
        metrics=metrics_section(jobs, outcome.completed),
        jobs=jobs_section(outcome, jobs),
    )
    assert validate_manifest(manifest) == []
    broken = dict(manifest, sweep={"name": "t"}, jobs=[{"job": "x"}])
    problems = validate_manifest(broken)
    assert any("sweep.total_jobs" in p for p in problems)
    assert any("jobs[0] missing" in p for p in problems)


def test_jobs_section_marks_resume_and_failures():
    jobs = _plan()
    outcome = _fake_outcome(jobs)
    failed_id = jobs[1].job_id
    del outcome.completed[failed_id]
    outcome.failures[failed_id] = {"attempt": 3, "kind": "timeout",
                                   "error": "slow"}
    outcome = type(outcome)(
        completed=outcome.completed,
        attempts=outcome.attempts,
        executed={failed_id: 3},
        failures=outcome.failures,
        resumed=tuple(
            job.job_id for job in jobs if job.job_id in outcome.completed
        ),
        wall_seconds=1.0,
    )
    section = {entry["job"]: entry for entry in jobs_section(outcome, jobs)}
    assert section[failed_id]["status"] == "failed"
    assert section[failed_id]["last_kind"] == "timeout"
    for job in jobs:
        if job.job_id != failed_id:
            assert section[job.job_id]["resumed"] is True
            assert section[job.job_id]["executed_attempts"] == 0


# -- worker result envelopes --------------------------------------------------

def test_result_filename_is_filesystem_safe():
    name = result_filename("sim:DMC:f0:gspc+ucd:llc8", 2)
    assert "/" not in name and ":" not in name
    assert name.endswith(".a2.json")


def test_worker_ships_result_object_outside_the_payload(tmp_path):
    """The envelope carries the pickled SimResult next to the payload;
    the payload — what the journal stores — stays plain JSON."""
    import multiprocessing

    from repro.sweep.worker import job_payload, result_value, run_job_in_worker

    spec = SweepSpec(name="t", policies=("lru",), apps=("DMC",), scale=0.03125)
    sim_job = expand(spec)[1]
    out_path = str(tmp_path / result_filename(sim_job.job_id, 1))
    process = multiprocessing.Process(
        target=run_job_in_worker,
        args=(job_payload(sim_job, spec, str(tmp_path / "cache")), out_path),
    )
    process.start()
    process.join()
    assert process.exitcode == 0
    envelope = load_result(out_path, sim_job.job_id)
    payload = envelope["payload"]
    assert set(payload) == {
        "job", "kind", "app", "frame", "policy", "llc_mb", "engine",
        "accesses", "metrics",
    }
    value = result_value(envelope["value"])
    assert value.policy == "lru" and value.accesses == payload["accesses"]
    assert json.loads(json.dumps(value.stats.snapshot())) == payload["metrics"]


def test_load_result_rejects_bad_envelopes(tmp_path):
    path = str(tmp_path / "r.json")
    with pytest.raises(SweepError, match="no result file"):
        load_result(path, "sim:a")
    body = {"v": 1, "payload": {"job": "sim:a"}, "seconds": 0.1}
    good = json.dumps({**body, "sha256": checksum(body)})
    with open(path, "w") as handle:
        handle.write(good[: len(good) // 2])  # torn write
    with pytest.raises(SweepError, match="unreadable|checksum"):
        load_result(path, "sim:a")
    with open(path, "w") as handle:
        handle.write(good)
    assert load_result(path, "sim:a")["payload"]["job"] == "sim:a"
    with pytest.raises(SweepError, match="names job"):
        load_result(path, "sim:b")
    tampered = dict(body, payload={"job": "sim:evil"})
    with open(path, "w") as handle:
        json.dump({**tampered, "sha256": checksum(body)}, handle)
    with pytest.raises(SweepError, match="checksum"):
        load_result(path, "sim:a")
