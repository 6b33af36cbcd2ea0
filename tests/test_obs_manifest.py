"""Run-manifest round trip, schema validation, and CLI emission."""

import dataclasses
import json
import os

import pytest

from repro.cli import main as sim_main
from repro.config import CacheParams, KB, LLCConfig
from repro.errors import ObservabilityError
from repro.gpu.timing import simulate_frame_timing
from repro.obs.events import sample_events
from repro.obs.manifest import (
    SCHEMA_VERSION,
    check_manifest,
    experiment_manifest,
    load_manifest,
    main as manifest_main,
    manifest_filename,
    sim_manifest,
    timing_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.spans import SpanRecorder
from repro.sim.offline import replay
from repro.trace import synth

LLC = LLCConfig(params=CacheParams(32 * KB, ways=4), banks=1, sample_period=8)


@pytest.fixture
def sim_run():
    trace = synth.random_trace(3000, 1024, seed=11)
    spans = SpanRecorder()
    record = replay(trace, "drrip", LLC, spans=spans)
    return record.result, sample_events(trace, record, LLC, 4), spans


def test_sim_manifest_contents(sim_run):
    result, events, spans = sim_run
    manifest = sim_manifest(
        result,
        config={"llc": dataclasses.asdict(LLC)},
        events=events,
        spans=spans,
    )
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["kind"] == "offline-sim"
    assert manifest["policy"] == "drrip"
    assert manifest["trace"]["accesses"] == result.accesses
    assert manifest["metrics"]["misses"] == result.misses
    assert manifest["metrics"]["per_stream"]["TEX"]["hits"] >= 0
    phases = manifest["phases"]
    assert phases["setup_seconds"] >= 0
    assert phases["replay_seconds"] > 0
    assert phases["elapsed_seconds"] == pytest.approx(
        phases["setup_seconds"] + phases["replay_seconds"]
    )
    assert "replay" in phases["spans"]
    assert manifest["events"]["sample_period"] == 4
    assert validate_manifest(manifest) == []


def test_manifest_round_trip(tmp_path, sim_run):
    result, events, spans = sim_run
    manifest = sim_manifest(result, config={}, events=events, spans=spans)
    path = write_manifest(manifest, str(tmp_path))
    assert os.path.basename(path) == manifest_filename(manifest)
    loaded = load_manifest(path)
    assert loaded == json.loads(json.dumps(manifest))
    assert validate_manifest(loaded) == []


def test_timing_manifest_valid():
    trace = synth.random_trace(3000, 1024, seed=2)
    timing = simulate_frame_timing(trace, "lru")
    manifest = timing_manifest(
        timing, config={}, trace_meta={"name": "synthetic"}
    )
    assert manifest["kind"] == "frame-timing"
    assert manifest["metrics"]["frame_ns"] > 0
    assert validate_manifest(manifest) == []


def test_experiment_manifest_valid():
    manifest = experiment_manifest(
        "fig01", "Motivation", config={"scale": 0.125}, elapsed_seconds=1.5
    )
    assert manifest["experiment"]["id"] == "fig01"
    assert manifest["phases"]["replay_seconds"] == 1.5
    assert validate_manifest(manifest) == []


def test_validation_catches_problems():
    assert validate_manifest({}) != []
    bad = {
        "schema_version": 99,
        "kind": "nonsense",
        "created_unix": 0,
        "config": {},
        "phases": {"setup_seconds": "x"},
    }
    problems = validate_manifest(bad)
    assert any("schema_version" in p for p in problems)
    assert any("kind" in p for p in problems)
    assert any("setup_seconds" in p for p in problems)
    with pytest.raises(ObservabilityError):
        check_manifest(bad)


def test_engine_field_validated(sim_run):
    result, observer, spans = sim_run
    manifest = sim_manifest(result, engine="fast")
    assert manifest["engine"] == "fast"
    assert validate_manifest(manifest) == []
    manifest["engine"] = "auto"  # only resolved engines may be recorded
    assert any("engine" in p for p in validate_manifest(manifest))
    without = sim_manifest(result)
    assert "engine" not in without
    assert validate_manifest(without) == []


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ObservabilityError):
        load_manifest(str(path))


def test_cli_emits_valid_manifest_per_policy(tmp_path, capsys):
    """The acceptance-criteria flow: gspc-sim --metrics-out DIR."""
    out_dir = tmp_path / "out"
    assert sim_main(
        [
            "--app", "AssnCreed", "--scale", "0.0625",
            "--policies", "drrip", "gspc+ucd",
            "--metrics-out", str(out_dir),
        ]
    ) == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 2
    policies = set()
    for name in files:
        manifest = load_manifest(str(out_dir / name))
        assert validate_manifest(manifest) == []
        policies.add(manifest["policy"])
        assert manifest["config"]["llc"]["params"]["ways"] == 16
        assert manifest["trace"]["name"] == "AssnCreed#f0"
        assert manifest["metrics"]["accesses"] == manifest["trace"]["accesses"]
        assert manifest["phases"]["replay_seconds"] > 0
        assert manifest["events"]["sampled"]["events"]
    assert policies == {"drrip", "gspc+ucd"}


def test_cli_timing_manifest(tmp_path):
    out_dir = tmp_path / "out"
    assert sim_main(
        [
            "--app", "DMC", "--scale", "0.0625", "--policies", "lru",
            "--timing", "--metrics-out", str(out_dir),
        ]
    ) == 0
    kinds = set()
    for name in os.listdir(out_dir):
        manifest = load_manifest(str(out_dir / name))
        assert validate_manifest(manifest) == []
        kinds.add(manifest["kind"])
    assert kinds == {"offline-sim", "frame-timing"}


def test_manifest_cli_validator(tmp_path, capsys, sim_run):
    result, observer, spans = sim_run
    good = write_manifest(sim_manifest(result), str(tmp_path))
    assert manifest_main([good]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert manifest_main([good, str(bad)]) == 1
