"""Span nesting, aggregation, and the recorder's span-event buffer."""

import os

import pytest

from repro.errors import ObservabilityError
from repro.obs import spans as spans_module
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext, make_event


class FakeClock:
    """Deterministic perf_counter: advances by `step` per reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def test_single_span_times_body():
    recorder = SpanRecorder(clock=FakeClock(step=1.0))
    with recorder.span("replay"):
        pass
    # Clock read at entry (0.0) and exit (1.0).
    assert recorder.flat()["replay"]["seconds"] == pytest.approx(1.0)
    assert recorder.flat()["replay"]["count"] == 1


def test_nesting_builds_paths():
    recorder = SpanRecorder(clock=FakeClock())
    with recorder.span("run"):
        with recorder.span("setup"):
            pass
        with recorder.span("replay"):
            pass
    flat = recorder.flat()
    assert set(flat) == {"run", "run/setup", "run/replay"}
    # Children accumulate under the parent, never as top-level entries.
    assert "setup" not in flat
    assert flat["run/setup"]["seconds"] > 0.0


def test_repeated_entry_aggregates():
    recorder = SpanRecorder(clock=FakeClock(step=0.5))
    for _ in range(3):
        with recorder.span("replay"):
            pass
    assert recorder.flat()["replay"]["count"] == 3
    assert recorder.flat()["replay"]["seconds"] == pytest.approx(1.5)


def test_exception_still_closes_span():
    recorder = SpanRecorder(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with recorder.span("boom"):
            raise RuntimeError()
    assert recorder.abandon_open_spans() == 0  # nothing left open
    assert recorder.flat()["boom"]["count"] == 1


def test_invalid_names_rejected():
    recorder = SpanRecorder()
    with pytest.raises(ObservabilityError):
        with recorder.span(""):
            pass
    with pytest.raises(ObservabilityError):
        with recorder.span("a/b"):
            pass


# -- count / max aggregates ---------------------------------------------------

def test_max_seconds_tracks_longest_entry():
    clock = FakeClock(step=0.0)
    recorder = SpanRecorder(clock=clock)
    for duration in (1.0, 5.0, 2.0):
        clock.step = duration / 2  # entry + exit reads bracket the body
        with recorder.span("replay"):
            pass
    flat = recorder.flat()["replay"]
    assert set(flat) == {"count", "seconds", "max_seconds"}
    assert flat["count"] == 3
    assert flat["max_seconds"] == pytest.approx(2.5)


# -- event recording ----------------------------------------------------------

def test_events_off_by_default():
    recorder = SpanRecorder(clock=FakeClock())
    with recorder.span("replay"):
        pass
    assert not recorder.events_enabled
    assert recorder.events_payload() == []


def test_events_record_shape_and_context():
    ctx = TraceContext.new_run("test").child("sim:x", attempt=2)
    recorder = SpanRecorder()
    recorder.enable_events(context=ctx)
    with recorder.span("run"):
        with recorder.span("replay"):
            pass
    events = recorder.events_payload()
    assert [e["path"] for e in events] == ["run/replay", "run"]  # close order
    for event in events:
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0.0
        assert event["ts"] > 0.0  # wall-clock anchored
        assert event["ctx"] == {
            "run_id": ctx.run_id, "job_id": "sim:x", "attempt": 2,
        }


def test_event_buffer_is_bounded(monkeypatch):
    monkeypatch.setattr(spans_module, "MAX_EVENTS", 2)
    recorder = SpanRecorder()
    recorder.enable_events()
    for _ in range(5):
        with recorder.span("replay"):
            pass
    assert len(recorder.events_payload()) == 2
    assert recorder.dropped_events == 3
    assert recorder.flat()["replay"]["count"] == 5  # aggregates see all


def test_recorder_gathers_own_and_shipped_events(monkeypatch):
    """Events recorded elsewhere (a worker's shipped events, an
    orchestrator span) merge into the one buffer under the same bound;
    a recorder not recording events ignores them."""
    ctx = TraceContext.new_run("run")
    shipped = [
        make_event("replay", 100.5, 1.0, pid=4242, path="sim/replay"),
        make_event("attempt", 100.0, 2.0, ctx=ctx.to_dict(),
                   args={"attempt": 1}),
    ]
    quiet = SpanRecorder()
    quiet.add_events(shipped)
    assert quiet.events_payload() == []

    recorder = SpanRecorder()
    recorder.enable_events(context=ctx)
    with recorder.span("sweep"):
        pass
    recorder.add_events(shipped)
    events = recorder.events_payload()
    assert [e["name"] for e in events] == ["sweep", "replay", "attempt"]
    assert {e["pid"] for e in events} == {os.getpid(), 4242}
    assert events[2]["ctx"] == ctx.to_dict()
    assert events[2]["args"] == {"attempt": 1}
    shipped[0]["name"] = "mutated"  # the buffer holds copies
    assert recorder.events_payload()[1]["name"] == "replay"

    monkeypatch.setattr(spans_module, "MAX_EVENTS", 4)
    recorder.add_events(shipped)
    assert len(recorder.events_payload()) == 4
    assert recorder.dropped_events == 1


# -- span-leak regression (CLI exception paths) -------------------------------

def test_abandon_open_spans_closes_leaks():
    """A run that bails out mid-span (the CLI exception path) can
    abandon the open spans, which then count like closed ones."""
    recorder = SpanRecorder(clock=FakeClock())
    outer = recorder.span("sweep")
    outer.__enter__()
    inner = recorder.span("run")
    inner.__enter__()
    # ...exception unwinds without ever calling __exit__...
    assert recorder.abandon_open_spans() == 2
    flat = recorder.flat()
    assert flat["sweep"]["count"] == 1
    assert flat["sweep/run"]["count"] == 1
    assert recorder.abandon_open_spans() == 0  # idempotent on clean state


def test_close_after_abandon_is_noop():
    recorder = SpanRecorder(clock=FakeClock())
    guard = recorder.span("orphan")
    guard.__enter__()
    recorder.abandon_open_spans()
    guard.__exit__(None, None, None)  # late unwind must not double-close
    assert recorder.flat()["orphan"]["count"] == 1
