"""The replay record and its consumers, the GPU timing models.

``repro.sim.offline.replay`` runs one LLC replay and keeps, per access,
the outcome code plus the ordered dirty victims.  Both timing models
read that record instead of driving their own LLC, so:

* both engines must produce the same record and the same timing fields
  for every fast-covered policy (with and without ``+ucd``);
* the timing fields must equal the values the models produced when
  each still ran its own reference LLC loop, pinned in
  ``tests/golden/timing_models.json`` at full float precision on one
  small frame (plus the same frame cut to exactly one timing window),
  whether a model replays itself or is handed a record;
* a handed record must belong to the trace and policy it is run with.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cache.llc import BYPASS, HIT, MISS
from repro.config import CacheParams, KB, LLCConfig, paper_baseline
from repro.errors import SimulationError
from repro.fastsim import FAST_POLICIES
from repro.gpu.detailed import DetailedGPUSimulator
from repro.gpu.timing import WINDOW_ACCESSES, FrameTimingSimulator
from repro.sim.offline import replay, simulate_trace
from repro.streams import Stream
from repro.workloads.apps import ALL_APPS
from repro.workloads.framegen import generate_frame_trace

from helpers import make_trace

with open(
    os.path.join(os.path.dirname(__file__), "golden", "timing_models.json"),
    encoding="utf-8",
) as _handle:
    PINNED = json.load(_handle)

COVERED = [name + suffix for name in FAST_POLICIES for suffix in ("", "+ucd")]


@pytest.fixture(scope="module")
def frame():
    trace = generate_frame_trace(
        ALL_APPS[PINNED["app_index"]], PINNED["frame"], scale=PINNED["scale"]
    )
    system = paper_baseline(llc_mb=PINNED["llc_mb"], scale=PINNED["scale"])
    assert len(trace) == PINNED["accesses"]
    return trace, system


def _windowed(trace, system, policy, engine="auto", record=None):
    simulator = FrameTimingSimulator(system)
    return simulator.run(trace, policy, engine=engine, record=record).to_dict()


def _detailed(trace, system, policy, engine="auto", record=None):
    return dataclasses.asdict(
        DetailedGPUSimulator(system).run(
            trace, policy, engine=engine, record=record
        )
    )


@pytest.mark.parametrize("policy", sorted(PINNED["windowed"]))
def test_windowed_model_matches_pinned_values(frame, policy):
    trace, system = frame
    assert _windowed(trace, system, policy) == PINNED["windowed"][policy]


@pytest.mark.parametrize("policy", sorted(PINNED["windowed_cut"]))
def test_windowed_model_pinned_on_whole_windows(frame, policy):
    """A trace that ends exactly on a window boundary closes no extra,
    empty window's worth of time."""
    trace, system = frame
    cut = trace.slice(0, WINDOW_ACCESSES)
    assert len(cut) == PINNED["cut_accesses"]
    assert _windowed(cut, system, policy) == PINNED["windowed_cut"][policy]


@pytest.mark.parametrize("policy", sorted(PINNED["detailed"]))
def test_detailed_model_matches_pinned_values(frame, policy):
    trace, system = frame
    assert _detailed(trace, system, policy) == PINNED["detailed"][policy]


@pytest.mark.parametrize("policy", sorted(PINNED["windowed"]))
def test_models_match_pinned_values_from_a_handed_record(frame, policy):
    trace, system = frame
    record = replay(trace, policy, system.llc)
    assert _windowed(trace, system, policy, record=record) == PINNED["windowed"][policy]
    assert _detailed(trace, system, policy, record=record) == PINNED["detailed"][policy]
    cut = trace.slice(0, WINDOW_ACCESSES)
    record = replay(cut, policy, system.llc)
    assert _windowed(cut, system, policy, record=record) == (
        PINNED["windowed_cut"][policy]
    )


@pytest.mark.parametrize(
    "model", [FrameTimingSimulator, DetailedGPUSimulator], ids=["windowed", "detailed"]
)
def test_mismatched_record_is_refused(frame, model):
    """A record of another policy or of another (shorter) trace raises
    rather than being integrated as if it were this run's."""
    trace, system = frame
    record = replay(trace, "lru", system.llc)
    simulator = model(system)
    with pytest.raises(SimulationError, match="does not match"):
        simulator.run(trace, "drrip", record=record)
    with pytest.raises(SimulationError, match="does not match"):
        simulator.run(trace.slice(0, 100), "lru", record=record)


@pytest.mark.parametrize("policy", COVERED)
def test_replay_identical_across_engines(frame, policy):
    trace, system = frame
    reference = replay(trace, policy, system.llc, engine="reference")
    fast = replay(trace, policy, system.llc, engine="fast")
    assert reference.outcomes.dtype == fast.outcomes.dtype == np.int8
    np.testing.assert_array_equal(reference.outcomes, fast.outcomes)
    np.testing.assert_array_equal(reference.victim_indices, fast.victim_indices)
    np.testing.assert_array_equal(
        reference.victim_addresses, fast.victim_addresses
    )
    np.testing.assert_array_equal(
        reference.resident_addresses, fast.resident_addresses
    )
    assert reference.result.stats.snapshot() == fast.result.stats.snapshot()


@pytest.mark.parametrize("policy", COVERED)
def test_timing_models_identical_across_engines(frame, policy):
    trace, system = frame
    assert _windowed(trace, system, policy, "reference") == _windowed(
        trace, system, policy, "fast"
    )
    assert _detailed(trace, system, policy, "reference") == _detailed(
        trace, system, policy, "fast"
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_victims_keep_trace_positions_past_uncached_accesses(engine):
    """An uncached access ahead of an eviction still counts as a trace
    position: the victim belongs to the access that evicted it."""
    llc = LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4)
    sets = llc.num_sets
    trace = make_trace(
        [
            (1000, Stream.DISPLAY, True),  # uncached under +ucd
            (0, Stream.RT, True),  # dirty fill in set 0
            (sets, Stream.Z),
            (2 * sets, Stream.Z),  # evicts the dirty block 0
        ]
    )
    record = replay(trace, "lru+ucd", llc, engine=engine)
    assert record.outcomes.tolist() == [BYPASS, MISS, MISS, MISS]
    assert record.victim_indices.tolist() == [3]
    assert record.victim_addresses.tolist() == [0]
    assert record.resident_addresses.tolist() == [sets * 64, 2 * sets * 64]


def test_record_agrees_with_stats_under_fill_vetoes(frame):
    """A vetoed fill is a miss in the stats and a BYPASS outcome."""
    trace, system = frame
    record = replay(trace, "gspc+bypass", system.llc)
    stats = record.result.stats
    assert int(np.count_nonzero(record.outcomes == HIT)) == stats.hits
    assert int(np.count_nonzero(record.outcomes != HIT)) == (
        stats.misses + stats.bypasses
    )
    assert len(record.victim_indices) == stats.writebacks
    assert np.all(np.diff(record.victim_indices) > 0)
    assert stats.bypasses == 0 and np.any(record.outcomes == BYPASS)


def test_replay_result_matches_simulate_trace(frame):
    trace, system = frame
    for engine in ("reference", "fast"):
        record = replay(trace, "gspc+ucd", system.llc, engine=engine)
        result = simulate_trace(trace, "gspc+ucd", system.llc, engine=engine)
        assert record.result.stats.snapshot() == result.stats.snapshot()
        assert record.result.extras == result.extras


def test_fast_engine_refuses_uncovered_timing_runs(frame):
    trace, system = frame
    with pytest.raises(SimulationError, match="not covered"):
        FrameTimingSimulator(system).run(trace, "gs-drrip+ucd", engine="fast")
    with pytest.raises(SimulationError, match="not covered"):
        DetailedGPUSimulator(system).run(trace, "gspc+bypass", engine="fast")
