"""Trace context propagation and the Chrome-trace / Prometheus-text
exporters."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    TraceContext,
    activate,
    current,
    deactivate,
    make_event,
)
from repro.obs.traceexport import (
    build_chrome_trace,
    check_trace,
    is_trace,
    load_trace_file,
    prometheus_text,
    validate_trace,
    write_trace_file,
)


# -- TraceContext -------------------------------------------------------------

def test_new_run_ids_are_prefixed_and_unique():
    a = TraceContext.new_run("gspc-sim")
    b = TraceContext.new_run("gspc-sim")
    assert a.run_id.startswith("gspc-sim-")
    assert a.run_id != b.run_id
    assert a.job_id == "" and a.attempt == 0


def test_child_keeps_run_identity():
    run = TraceContext.new_run("sweep")
    child = run.child("sim:DMC:f0:lru:llc8", attempt=3)
    assert child.run_id == run.run_id
    assert child.job_id == "sim:DMC:f0:lru:llc8"
    assert child.attempt == 3


def test_dict_roundtrip_across_process_boundary():
    ctx = TraceContext.new_run("run").child("job-7", attempt=2)
    data = ctx.to_dict()
    assert json.loads(json.dumps(data)) == data  # JSON-clean
    assert TraceContext.from_dict(data) == ctx
    # Falsy fields are dropped from the wire format.
    assert set(TraceContext.new_run("r").to_dict()) == {"run_id"}


def test_from_dict_rejects_unknown_keys_and_none():
    assert TraceContext.from_dict(None) is None
    assert TraceContext.from_dict({}) is None
    with pytest.raises(ObservabilityError, match="unknown trace-context"):
        TraceContext.from_dict({"run_id": "r", "spam": 1})


def test_context_validation():
    with pytest.raises(ObservabilityError, match="needs a run_id"):
        TraceContext(run_id="")
    with pytest.raises(ObservabilityError, match="attempt must be >= 0"):
        TraceContext(run_id="r", attempt=-1)


def test_activate_current_deactivate():
    ctx = TraceContext.new_run("test")
    try:
        assert activate(ctx) is ctx
        assert current() is ctx
    finally:
        deactivate()
    assert current() is None


# -- Chrome trace export ------------------------------------------------------

def _sample_events(run_id):
    ctx = {"run_id": run_id, "job_id": "sim:a"}
    return [
        make_event("sim", 1000.0, 3.0, pid=11, ctx=ctx),
        make_event("replay", 1001.0, 1.5, pid=11, path="sim/replay", ctx=ctx),
        make_event("sweep", 999.0, 5.0, pid=10,
                   ctx={"run_id": run_id}),
    ]


def test_build_chrome_trace_structure():
    trace = build_chrome_trace(
        _sample_events("run-1"),
        "run-1",
        process_names={10: "orchestrator"},
        extra_metadata={"sweep": "tiny"},
    )
    assert is_trace(trace)
    assert validate_trace(trace) == []
    assert trace["metadata"]["run_id"] == "run-1"
    assert trace["metadata"]["sweep"] == "tiny"
    assert trace["metadata"]["pids"] == [10, 11]
    meta_events = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert {e["args"]["name"] for e in meta_events} == {
        "orchestrator", "worker 11",
    }
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    # Sorted by start; timestamps rebased to the earliest (999.0) in µs.
    assert [e["name"] for e in spans] == ["sweep", "sim", "replay"]
    assert spans[0]["ts"] == 0.0
    assert spans[1]["ts"] == pytest.approx(1_000_000.0)
    assert spans[2]["dur"] == pytest.approx(1_500_000.0)
    # Trace context and path land in args for the viewer.
    assert spans[1]["args"]["run_id"] == "run-1"
    assert spans[2]["args"]["path"] == "sim/replay"


def test_trace_file_roundtrip(tmp_path):
    trace = build_chrome_trace(_sample_events("run-2"), "run-2")
    path = str(tmp_path / "deep" / "trace.json")
    assert write_trace_file(trace, path) == path
    assert load_trace_file(path) == json.loads(json.dumps(trace))
    check_trace(load_trace_file(path))  # must not raise


def test_validate_trace_catches_problems():
    assert validate_trace([]) == ["trace must be an object, got list"]
    assert validate_trace({"traceEvents": "nope"}) == [
        "'traceEvents' must be a list"
    ]
    bad_phase = {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 1}]}
    assert any(".ph" in p for p in validate_trace(bad_phase))
    negative = {
        "traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1, "dur": 0}
        ]
    }
    assert any(".ts" in p for p in validate_trace(negative))
    with pytest.raises(ObservabilityError, match="invalid trace"):
        check_trace(negative)


def test_validate_trace_rejects_foreign_run_events():
    trace = build_chrome_trace(_sample_events("run-3"), "run-3")
    trace["traceEvents"][-1]["args"]["run_id"] = "someone-else"
    problems = validate_trace(trace)
    assert any("someone-else" in p for p in problems)


def test_build_chrome_trace_empty_events():
    trace = build_chrome_trace([], "run-4")
    assert validate_trace(trace) == []
    assert trace["traceEvents"] == []


# -- Prometheus text ----------------------------------------------------------

def test_prometheus_text_renders_snapshot():
    registry = MetricsRegistry()
    registry.counter("sweep.jobs.total").inc(3)
    registry.gauge("sweep.wall_seconds").set(1.5)
    histogram = registry.histogram("sweep.attempt_seconds")
    histogram.observe(0.2)
    histogram.observe(0.4)
    text = prometheus_text(
        registry.snapshot(), labels={"run_id": "run-9"}
    )
    assert '# TYPE repro_sweep_jobs_total counter' in text
    assert 'repro_sweep_jobs_total{run_id="run-9"} 3' in text
    assert 'repro_sweep_wall_seconds{run_id="run-9"} 1.5' in text
    assert '# TYPE repro_sweep_attempt_seconds histogram' in text
    assert 'le="+Inf"' in text
    assert 'repro_sweep_attempt_seconds_count{run_id="run-9"} 2' in text
    # Bucket counts are cumulative and end at the total count.
    bucket_lines = [
        line for line in text.splitlines() if "_bucket" in line
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert counts == sorted(counts)
    assert counts[-1] == 2
