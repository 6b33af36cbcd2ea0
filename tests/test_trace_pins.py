"""Byte pins of the synthesized LLC traces.

Each trace is pinned by two hashes (sha256, first 16 hex digits): one
over its ``addresses``, ``streams`` and ``writes`` bytes, one over
``json.dumps(trace.meta, sort_keys=True)``.  The pins cover every
synthesis path through the render caches: the 12 Table-1 apps at frame
1 (frame 0 is pinned through the experiment CSVs), a two-frame
sequence, a command-list replay at a tiny and at the full render-cache
size, and one preset of each workload family; the captured command
list's JSON is pinned too.  A change to the render caches, the trace
builder or the rasterizer that alters any access, its order, stream or
store flag fails here, and so does one that alters a trace's metadata.
"""

import hashlib
import json

import pytest

from repro.config import RenderCachesConfig
from repro.trace.sources.synthetic import SyntheticSource
from repro.workloads.apps import ALL_APPS, app_by_name
from repro.workloads.framegen import generate_frame_trace
from repro.workloads.replay import capture_frame_commands, replay_command_list
from repro.workloads.sequence import generate_sequence_trace

SCALE = 1 / 32

FRAME_PINS = {
    "3DMarkVAGT1": ("e48803420b24f593", "1dcdcaf589cc2f78"),
    "3DMarkVAGT2": ("960bf813b7f485a3", "bd4bccb856ccdd88"),
    "AssnCreed": ("8c1633152bf23a5d", "bcfaabda42bb79c5"),
    "BioShock": ("3e77525198b5b79a", "d0ae90eb76d71ac9"),
    "DMC": ("67c58a092db911d3", "b0fed29c91f5f1ab"),
    "Civilization": ("bfb332ed54b935ee", "b7f81f850a03670f"),
    "Dirt": ("f6d6925d89cc32d6", "59fd3f3f05fd76e7"),
    "HAWX": ("29a0634dfafcbc18", "0861e5c2256311d5"),
    "Heaven": ("9b82ca358df32d6b", "c1c468b4b1810c9e"),
    "LostPlanet": ("e0934562efac434b", "2bd9820d1a140f9a"),
    "StalkerCOP": ("c8eb162d5ec2ee49", "483ffd6982b32019"),
    "Unigine": ("dac87baa5caab330", "c50e771cd3c465ce"),
}

REPLAY_PINS = {
    0.01: ("b2de576116aa57f3", "678461097ad99f9e"),
    1.0: ("e7ae4734bb59573f", "678461097ad99f9e"),
}

FAMILY_PINS = {
    "coherent-high": ("08b6925352711db4", "9f2038b80717a774"),
    "graph-bfs": ("3a6001f56996d0b0", "080112842a1ff15d"),
    "compute-stream": ("aff2530e14b0e88b", "2aa3362668fe3baa"),
}


def _hash(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]


def _digest(trace):
    """(columns hash, meta hash) of one trace."""
    return (
        _hash(trace.addresses.tobytes(), trace.streams.tobytes(),
              trace.writes.tobytes()),
        _hash(json.dumps(trace.meta, sort_keys=True).encode("utf-8")),
    )


def test_pins_cover_every_table1_app():
    assert sorted(FRAME_PINS) == sorted(app.abbrev for app in ALL_APPS)


@pytest.mark.parametrize("abbrev", sorted(FRAME_PINS))
def test_frame_trace_pin(abbrev):
    trace = generate_frame_trace(app_by_name(abbrev), 1, scale=SCALE)
    assert _digest(trace) == FRAME_PINS[abbrev]


def test_sequence_trace_pin():
    trace = generate_sequence_trace(ALL_APPS[0], num_frames=2, scale=SCALE)
    assert _digest(trace) == ("21a71719f8073ea7", "43c511f089720786")


@pytest.fixture(scope="module")
def command_list():
    return capture_frame_commands(ALL_APPS[3], 0, scale=SCALE)


def test_command_list_json_pin(command_list):
    assert _hash(command_list.to_json().encode("utf-8")) == "f0d1770db2dcc405"


@pytest.mark.parametrize("factor", sorted(REPLAY_PINS))
def test_command_list_replay_pin(command_list, factor):
    trace = replay_command_list(command_list, RenderCachesConfig().scaled(factor))
    assert _digest(trace) == REPLAY_PINS[factor]


@pytest.mark.parametrize("workload", sorted(FAMILY_PINS))
def test_family_trace_pin(workload):
    trace = SyntheticSource().frame_trace(workload, 0, SCALE)
    assert _digest(trace) == FAMILY_PINS[workload]
