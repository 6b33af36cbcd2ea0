"""gspc-sim CLI tests."""

import logging
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.streams import Stream
from repro.trace.io import save_trace
from repro.trace.record import TraceBuilder


@pytest.fixture
def tiny_trace_path(tmp_path):
    builder = TraceBuilder({"name": "cli-test", "scale": 0.125})
    rng = np.random.default_rng(0)
    for _ in range(3000):
        builder.append(int(rng.integers(0, 4096)) * 64, Stream(int(rng.integers(0, 8))))
    path = tmp_path / "trace.npz"
    save_trace(builder.build(), path)
    return str(path)


def test_list_policies(capsys):
    assert main(["--list-policies"]) == 0
    out = capsys.readouterr().out
    assert "gspc" in out and "drrip" in out


def test_simulate_saved_trace(tiny_trace_path, capsys):
    assert main(
        ["--trace", tiny_trace_path, "--policies", "drrip", "lru"]
    ) == 0
    out = capsys.readouterr().out
    assert "Offline simulation" in out
    assert "DRRIP" in out and "LRU" in out


def test_timing_flag(tiny_trace_path, capsys):
    assert main(
        ["--trace", tiny_trace_path, "--policies", "lru", "--timing"]
    ) == 0
    assert "Frame timing" in capsys.readouterr().out


def test_timing_integrates_the_replay_already_run(
    tiny_trace_path, tmp_path, monkeypatch
):
    """``--timing`` replays each policy once, not once more for the
    frame-timing model, and ``--metrics-out`` still gets both the
    sampled events and the frame-timing manifests."""
    import json

    from repro.fastsim import engine

    replays = []
    fast_replay = engine.fast_replay

    def counting(trace, policy, *args, **kwargs):
        replays.append(policy)
        return fast_replay(trace, policy, *args, **kwargs)

    monkeypatch.setattr(engine, "fast_replay", counting)
    out = tmp_path / "m"
    assert main(
        ["--trace", tiny_trace_path, "--policies", "drrip", "gspc+ucd",
         "--timing", "--engine", "fast", "--metrics-out", str(out)]
    ) == 0
    assert replays == ["drrip", "gspc+ucd"]
    manifests = [json.loads((out / name).read_text()) for name in os.listdir(out)]
    assert sorted(manifest["kind"] for manifest in manifests) == [
        "frame-timing", "frame-timing", "offline-sim", "offline-sim"
    ]
    for manifest in manifests:
        if manifest["kind"] == "offline-sim":
            assert manifest["events"]["events"] > 0


def test_app_synthesis(capsys):
    assert main(
        ["--app", "AssnCreed", "--scale", "0.0625", "--policies", "lru"]
    ) == 0
    assert "AssnCreed#f0" in capsys.readouterr().out


def test_save_trace(tmp_path, capsys):
    out_path = tmp_path / "saved.npz"
    assert main(
        ["--app", "DMC", "--scale", "0.0625", "--save-trace", str(out_path)]
    ) == 0
    assert out_path.exists()


def test_unknown_policy_errors(tiny_trace_path, capsys):
    assert main(["--trace", tiny_trace_path, "--policies", "nonsense"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_trace_errors(capsys):
    assert main(["--trace", "/nonexistent/file.npz"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_app_errors(capsys):
    assert main(["--app", "Quake"]) == 1


def test_negative_jobs_rejected(tiny_trace_path, capsys):
    """gspc-sim is serial and takes no --jobs at all (gspc-sweep is the
    parallel multi-policy path): any value is a usage error."""
    for jobs in ("-3", "2"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--trace", tiny_trace_path, "--jobs", jobs])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err


def test_jobs_manifest_has_parallel_section(
    tiny_trace_path, tmp_path, monkeypatch
):
    """``gspc-experiments --jobs 2`` records a complete, valid
    ``parallel`` manifest section; gspc-sim is serial and records none."""
    import json

    from repro.experiments.common import clear_result_caches
    from repro.experiments.runner import main as experiments_main
    from repro.obs.manifest import validate_manifest

    monkeypatch.chdir(tmp_path)
    try:
        assert experiments_main(
            ["fig08", "--scale", "0.03125", "--no-cache", "--jobs", "2",
             "--metrics-out", "exp"]
        ) == 0
    finally:
        clear_result_caches()
    [name] = os.listdir(tmp_path / "exp")
    manifest = json.loads((tmp_path / "exp" / name).read_text())
    assert validate_manifest(manifest) == []
    parallel = manifest["parallel"]
    assert set(parallel) == {
        "workers", "jobs", "wall_seconds", "serial_seconds_estimate",
        "speedup", "per_job",
    }
    assert parallel["workers"] == 2
    assert parallel["jobs"] == len(parallel["per_job"]) > 0

    out = tmp_path / "sim"
    assert main(
        ["--trace", tiny_trace_path, "--policies", "drrip", "lru",
         "--metrics-out", str(out)]
    ) == 0
    for name in os.listdir(out):
        manifest = json.loads((out / name).read_text())
        assert "parallel" not in manifest
        assert manifest["events"]["sample_period"] >= 1


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.policies == ["drrip", "gspc+ucd"]
    assert args.llc_mb == 8
    assert args.metrics_out is None
    assert args.log_level is None  # resolved via $REPRO_LOG_LEVEL
    assert not args.verbose
    assert args.engine == "auto"


def test_unknown_engine_exits_2(tiny_trace_path, capsys):
    # argparse rejects values outside its choices with usage + exit 2.
    with pytest.raises(SystemExit) as excinfo:
        main(["--trace", tiny_trace_path, "--engine", "turbo"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_engine_fast_rejects_uncovered_policy(tiny_trace_path, capsys):
    assert main(
        [
            "--trace", tiny_trace_path,
            "--policies", "gspc+bypass",
            "--engine", "fast",
        ]
    ) == 1
    err = capsys.readouterr().err
    assert "not covered by the fast engine" in err
    # The covered list is derived from the registry, not hardcoded.
    assert "gspc" in err


def test_engine_auto_falls_back_for_uncovered_policy(tiny_trace_path, capsys):
    assert main(
        [
            "--trace", tiny_trace_path,
            "--policies", "gspc+bypass",
            "--engine", "auto",
        ]
    ) == 0
    assert "GSPC+BYPASS" in capsys.readouterr().out.upper()


def test_engine_fast_matches_reference_table(tiny_trace_path, capsys):
    policies = ["--policies", "drrip", "nru", "belady"]
    assert main(
        ["--trace", tiny_trace_path, *policies, "--engine", "reference"]
    ) == 0
    reference = capsys.readouterr().out
    assert main(
        ["--trace", tiny_trace_path, *policies, "--engine", "fast"]
    ) == 0
    assert capsys.readouterr().out == reference


def test_engine_recorded_in_manifest(tiny_trace_path, tmp_path):
    out = tmp_path / "m"
    assert main(
        ["--trace", tiny_trace_path, "--policies", "drrip", "gspc",
         "--metrics-out", str(out)]
    ) == 0
    import json

    by_policy = {}
    for name in os.listdir(out):
        manifest = json.loads((out / name).read_text())
        by_policy[manifest["policy"]] = manifest
    # Observers read the replay record, so telemetry (--metrics-out)
    # leaves auto on the kernels.
    assert by_policy["drrip"]["engine"] == "fast"
    assert by_policy["gspc"]["engine"] == "fast"
    for manifest in by_policy.values():
        assert manifest["events"]["sample_period"] >= 1
        assert manifest["phases"]["spans"]


def test_engine_fast_manifest_records_fast(tiny_trace_path, tmp_path):
    import json

    manifests = {}
    for engine in ("fast", "reference"):
        out = tmp_path / engine
        assert main(
            ["--trace", tiny_trace_path, "--policies", "drrip",
             "--engine", engine, "--metrics-out", str(out)]
        ) == 0
        [name] = os.listdir(out)
        manifests[engine] = json.loads((out / name).read_text())
    assert manifests["fast"]["engine"] == "fast"
    # The fast run's event summary is the reference run's.
    assert manifests["fast"]["events"]["events"] > 0
    assert manifests["fast"]["events"] == manifests["reference"]["events"]


def test_trace_out_writes_valid_chrome_trace(tiny_trace_path, tmp_path):
    from repro.obs.traceexport import load_trace_file, validate_trace

    trace_path = str(tmp_path / "run.trace.json")
    assert main(
        ["--trace", tiny_trace_path, "--policies", "drrip", "lru",
         "--trace-out", trace_path]
    ) == 0
    trace = load_trace_file(trace_path)
    assert validate_trace(trace) == []
    assert trace["metadata"]["run_id"].startswith("gspc-sim-")
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans, "no span events exported"
    # One root "sim" span per policy, each stamped with its job id.
    roots = [e for e in spans if e["name"] == "sim"]
    assert {e["args"]["job_id"] for e in roots} == {
        "sim:drrip", "sim:lru",
    }
    assert {e["args"]["run_id"] for e in spans} == {
        trace["metadata"]["run_id"]
    }


def test_trace_sample_must_be_positive(tiny_trace_path, capsys):
    assert main(
        ["--trace", tiny_trace_path, "--trace-sample", "0"]
    ) == 2
    assert "--trace-sample must be >= 1" in capsys.readouterr().err


def test_metrics_text_dump(tiny_trace_path, tmp_path):
    metrics_path = str(tmp_path / "metrics.prom")
    assert main(
        ["--trace", tiny_trace_path, "--policies", "drrip",
         "--metrics-text", metrics_path]
    ) == 0
    with open(metrics_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert "# TYPE repro_sim_policies counter" in text
    assert "repro_sim_misses_drrip" in text
    assert 'run_id="gspc-sim-' in text


def test_verbose_sets_debug_level(tiny_trace_path):
    assert main(
        ["--trace", tiny_trace_path, "--policies", "lru", "--verbose"]
    ) == 0
    assert logging.getLogger("repro").level == logging.DEBUG


def test_bad_log_level_errors(tiny_trace_path, capsys):
    assert main(
        ["--trace", tiny_trace_path, "--log-level", "CHATTY"]
    ) == 1
    assert "error:" in capsys.readouterr().err
