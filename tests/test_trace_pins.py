"""Byte pins of the synthesized LLC traces.

Each trace is hashed as sha256 over its ``addresses``, ``streams`` and
``writes`` bytes (first 16 hex digits) and compared with a constant.
The pins cover every synthesis path through the render caches: the 12
Table-1 apps at frame 1 (frame 0 is pinned through the experiment CSVs),
a two-frame sequence, a command-list replay at a tiny and at the full
render-cache size, and one preset of each workload family.  A change to
the render caches, the trace builder or the rasterizer that alters any
access, its order, stream or store flag fails here.
"""

import hashlib

import pytest

from repro.config import RenderCachesConfig
from repro.trace.sources.synthetic import SyntheticSource
from repro.workloads.apps import ALL_APPS, app_by_name
from repro.workloads.framegen import generate_frame_trace
from repro.workloads.replay import capture_frame_commands, replay_command_list
from repro.workloads.sequence import generate_sequence_trace

SCALE = 1 / 32

FRAME_PINS = {
    "3DMarkVAGT1": "e48803420b24f593",
    "3DMarkVAGT2": "960bf813b7f485a3",
    "AssnCreed": "8c1633152bf23a5d",
    "BioShock": "3e77525198b5b79a",
    "DMC": "67c58a092db911d3",
    "Civilization": "bfb332ed54b935ee",
    "Dirt": "f6d6925d89cc32d6",
    "HAWX": "29a0634dfafcbc18",
    "Heaven": "9b82ca358df32d6b",
    "LostPlanet": "e0934562efac434b",
    "StalkerCOP": "c8eb162d5ec2ee49",
    "Unigine": "dac87baa5caab330",
}

REPLAY_PINS = {0.01: "b2de576116aa57f3", 1.0: "e7ae4734bb59573f"}

FAMILY_PINS = {
    "coherent-high": "08b6925352711db4",
    "graph-bfs": "3a6001f56996d0b0",
    "compute-stream": "aff2530e14b0e88b",
}


def _digest(trace) -> str:
    digest = hashlib.sha256()
    for column in (trace.addresses, trace.streams, trace.writes):
        digest.update(column.tobytes())
    return digest.hexdigest()[:16]


def test_pins_cover_every_table1_app():
    assert sorted(FRAME_PINS) == sorted(app.abbrev for app in ALL_APPS)


@pytest.mark.parametrize("abbrev", sorted(FRAME_PINS))
def test_frame_trace_pin(abbrev):
    trace = generate_frame_trace(app_by_name(abbrev), 1, scale=SCALE)
    assert _digest(trace) == FRAME_PINS[abbrev]


def test_sequence_trace_pin():
    trace = generate_sequence_trace(ALL_APPS[0], num_frames=2, scale=SCALE)
    assert _digest(trace) == "21a71719f8073ea7"


@pytest.fixture(scope="module")
def command_list():
    return capture_frame_commands(ALL_APPS[3], 0, scale=SCALE)


@pytest.mark.parametrize("factor", sorted(REPLAY_PINS))
def test_command_list_replay_pin(command_list, factor):
    trace = replay_command_list(command_list, RenderCachesConfig().scaled(factor))
    assert _digest(trace) == REPLAY_PINS[factor]


@pytest.mark.parametrize("workload", sorted(FAMILY_PINS))
def test_family_trace_pin(workload):
    trace = SyntheticSource().frame_trace(workload, 0, SCALE)
    assert _digest(trace) == FAMILY_PINS[workload]
