"""Observers of a replay: pinned outputs and engine equivalence.

``sample_events`` and ``EpochTracker`` derive their outputs from a
replay's :class:`~repro.sim.results.Replay` record after the replay, so:

* their outputs must equal the values they produced when both still ran
  as per-event hooks inside the reference LLC, pinned in
  ``tests/golden/observers.json`` on one small frame (event summaries at
  sample periods 1, 7 and 64, TEX/Z epoch statistics and untracked
  hits) for covered and uncovered policies alike;
* every fast-covered policy (with and without ``+ucd``) must give
  identical observer outputs on both engines;
* the RT productions and consumptions read off the record must be the
  ones the reference LLC counts, access by access.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.config import paper_baseline
from repro.core.base import NEVER
from repro.core.registry import available_policies
from repro.obs.events import sample_events
from repro.sim.epochs import EpochTracker, rt_transitions
from repro.sim.future import next_use_indices
from repro.sim.offline import build_llc, replay, simulate_trace
from repro.streams import StreamClass
from repro.workloads.apps import ALL_APPS
from repro.workloads.framegen import generate_frame_trace

with open(
    os.path.join(os.path.dirname(__file__), "golden", "observers.json"),
    encoding="utf-8",
) as _handle:
    PINNED = json.load(_handle)

PERIODS = (1, 7, 64)
COVERED = [name + suffix for name in available_policies() for suffix in ("", "+ucd")]


@pytest.fixture(scope="module")
def frame():
    trace = generate_frame_trace(
        ALL_APPS[PINNED["app_index"]], PINNED["frame"], scale=PINNED["scale"]
    )
    llc = paper_baseline(llc_mb=PINNED["llc_mb"], scale=PINNED["scale"]).llc
    assert len(trace) == PINNED["accesses"]
    return trace, llc


def _jsonable(value):
    return json.loads(json.dumps(value))


def _summaries(trace, llc, policy, engine):
    record = replay(trace, policy, llc, engine=engine)
    return _jsonable(
        {str(period): sample_events(trace, record, llc, period) for period in PERIODS}
    )


def _epochs(trace, llc, policy, engine):
    tracker = EpochTracker()
    simulate_trace(trace, policy, llc, observer=tracker, engine=engine)
    tex, z = StreamClass.TEX, StreamClass.Z
    return _jsonable(
        {
            "tex": dataclasses.asdict(tracker.stats[tex]),
            "z": dataclasses.asdict(tracker.stats[z]),
            "tex_untracked_hits": tracker.untracked_hits[tex],
            "z_untracked_hits": tracker.untracked_hits[z],
        }
    )


@pytest.mark.parametrize("policy", sorted(PINNED["events"]))
def test_event_summaries_match_pinned_values(frame, policy):
    trace, llc = frame
    assert _summaries(trace, llc, policy, "auto") == PINNED["events"][policy]


@pytest.mark.parametrize("policy", sorted(PINNED["epochs"]))
def test_epoch_stats_match_pinned_values(frame, policy):
    trace, llc = frame
    assert _epochs(trace, llc, policy, "auto") == PINNED["epochs"][policy]


@pytest.mark.parametrize("policy", COVERED)
def test_observers_identical_on_both_engines(frame, policy):
    trace, llc = frame
    for observe in (_summaries, _epochs):
        assert observe(trace, llc, policy, "fast") == observe(
            trace, llc, policy, "reference"
        )


@pytest.mark.parametrize("policy", sorted(PINNED["epochs"]))
def test_rt_transitions_match_the_llc_access_by_access(frame, policy):
    """The RT-bit masks mark exactly the accesses at which the reference
    LLC counts an RT production and an RT consumption."""
    trace, llc_config = frame
    llc = build_llc(policy, llc_config)
    if llc.policy.needs_future:
        next_uses = next_use_indices(trace.block_addresses()).tolist()
    else:
        next_uses = [NEVER] * len(trace)
    counted_produced, counted_consumed = [], []
    for address, stream, write, next_use in zip(
        trace.addresses.tolist(),
        trace.streams.tolist(),
        trace.writes.tolist(),
        next_uses,
    ):
        produced = llc.stats.rt_produced
        consumed = llc.stats.rt_consumed
        llc.access(address, stream, write, next_use)
        counted_produced.append(llc.stats.rt_produced > produced)
        counted_consumed.append(llc.stats.rt_consumed > consumed)
    record = replay(trace, policy, llc_config)
    produced, consumed = rt_transitions(
        trace, record.outcomes, llc.geometry.block_bits
    )
    assert produced.tolist() == counted_produced
    assert consumed.tolist() == counted_consumed
    assert any(counted_produced) and any(counted_consumed)
