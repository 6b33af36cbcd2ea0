"""Tests of the benchmark's own code: span arithmetic and failure accounting.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure, PassOutput, checked, conservation_problems, score  # noqa: E402
from tracer import Patches, Tracer, attribute, self_intervals  # noqa: E402


def self_seconds(spans):
    return {
        span_id: sum(end - start for start, end in pieces)
        for span_id, pieces in self_intervals(spans).items()
    }


def span(span_id, parent, start, end, name=None):
    return {"id": span_id, "parent": parent, "name": name or span_id,
            "start": start, "end": end}


def test_self_time_subtracts_direct_children():
    spans = [
        span("root", None, 0, 10),
        span("a", "root", 1, 4),
        span("b", "a", 2, 3),
        span("c", "root", 5, 9),
    ]
    assert self_seconds(spans) == {"root": 3, "a": 2, "b": 1, "c": 4}


def test_overlapping_children_are_subtracted_once():
    spans = [span("p", None, 0, 10), span("x", "p", 1, 5), span("y", "p", 3, 7)]
    assert self_seconds(spans)["p"] == 4  # 10 - |[1, 7]|, not 10 - 4 - 4
    spans = [span("p", None, 0, 10), span("x", "p", 1, 8), span("y", "p", 3, 5)]
    assert self_seconds(spans)["p"] == 3  # y lies inside x


def test_children_outside_the_parent_are_clipped():
    spans = [
        span("p", None, 2, 6),
        span("x", "p", 0, 3),
        span("y", "p", 5, 9),
        span("z", "p", 7, 9),  # wholly after p: covers none of it
    ]
    assert self_seconds(spans)["p"] == 2


def test_attribution_equals_self_time_when_serial():
    spans = [span("root", None, 0, 10), span("a", "root", 1, 4), span("b", "a", 2, 3)]
    assert attribute(spans) == pytest.approx(self_seconds(spans))


def test_attribution_splits_concurrent_spans_and_sums_to_wall():
    spans = [
        span("root", None, 0, 10),
        span("att1", "root", 0, 10, "attempt"),
        span("att2", "root", 0, 10, "attempt"),
        span("job1", "att1", 1, 9, "job"),
        span("job2", "att2", 1, 9, "job"),
    ]
    shares = attribute(spans)
    assert shares == pytest.approx({"attempt": 2.0, "job": 8.0})
    assert sum(shares.values()) == pytest.approx(10.0)


def test_tracer_links_parents_and_inherits_request_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("experiments.run", request="fig12")
    inner = tracer.open("sim.ref")
    tracer.close(inner)
    attempt = tracer.detached("sweep.attempt", request="job#1")
    tracer.close(outer)
    tracer.close(attempt)
    assert inner["parent"] == outer["id"] and inner["request"] == "fig12"
    assert attempt["parent"] == outer["id"] and attempt["request"] == "job#1"
    assert "sim.ref" in outer["kids"]
    # outer [0, 4] minus inner [1, 2] and the clipped attempt [3, 4]
    assert self_seconds(tracer.spans)[outer["id"]] == 2


def test_corrupted_pinned_digest_counts_as_a_failed_operation():
    output = PassOutput(digests={"fig12": "aaaa", "fig13": "bbbb"})
    assert score([output], {"fig12": "aaaa", "fig13": "bbbb"})[:2] == (2, 0)
    attempted, failed, problems = score([output], {"fig12": "aaaa", "fig13": "cccc"})
    assert (attempted, failed) == (2, 1)
    assert "fig13" in problems[0]


def test_missing_and_unpinned_operations_fail():
    output = PassOutput(digests={"extra": "aaaa"}, failures={"boom": "exit code 1"})
    attempted, failed, _ = score([output], {"boom": "x", "gone": "y"})
    assert (attempted, failed) == (3, 3)


def test_unpinned_seeds_must_repeat_the_first_pass():
    first = PassOutput(digests={"op": "aaaa", "trace": None})
    second = PassOutput(digests={"op": "bbbb", "trace": None})
    assert score([first, first])[:2] == (4, 0)
    assert score([first, second])[:2] == (4, 1)


def _tiny_trace():
    from repro.trace.record import Trace

    rng = np.random.default_rng(7)
    return Trace(
        rng.integers(0, 1 << 16, 4000) * 64,
        rng.integers(0, 6, 4000),
        rng.random(4000) < 0.3,
    )


def test_conservation_holds_on_real_results():
    from repro.config import LLCConfig
    from repro.sim.offline import simulate_trace

    trace = _tiny_trace()
    for engine in ("reference", "fast"):
        result = simulate_trace(trace, "gspc+ucd", LLCConfig(), engine=engine)
        assert conservation_problems(trace, result) == []


def _break_conservation(simulate):
    from repro.streams import Stream

    def broken(*args, **kwargs):
        result = simulate(*args, **kwargs)
        result.stats.per_stream[Stream.TEXTURE].hits += 1
        return result

    return broken


def test_seeded_conservation_break_raises():
    from repro.config import LLCConfig
    from repro.sim.offline import simulate_trace

    with pytest.raises(CheckFailure, match="TEXTURE"):
        checked(_break_conservation(simulate_trace))(_tiny_trace(), "lru", LLCConfig())


def test_seeded_conservation_break_counts_as_failed_operations(tmp_path, monkeypatch):
    from repro.sim import offline

    monkeypatch.setattr(workloads, "SIM_SCALE", 0.03125)
    patches = Patches()
    original = offline.simulate_trace
    patches.everywhere(original, _break_conservation(original))
    layers.install_checks(patches)
    try:
        output = workloads.SimTelemetry().run_pass("", str(tmp_path), [("DMC", 0)])
    finally:
        patches.undo()
    assert offline.simulate_trace is original
    attempted, failed, problems = score([output])
    assert (attempted, failed) == (len(workloads.POLICIES), len(workloads.POLICIES))
    assert "conservation" in problems[0]


def test_seed_zero_picks_frame_zero_and_seeds_repeat():
    assert {index for _, index in workloads.frames_for_seed(0)} == {0}
    assert workloads.frames_for_seed(5) == workloads.frames_for_seed(5)
    assert workloads.frames_for_seed(5) != workloads.frames_for_seed(6)
    assert len(workloads.frames_for_seed(5)) == 12
