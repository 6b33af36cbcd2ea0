"""Experiment-framework tests (micro scale: fast but end-to-end)."""

import dataclasses
import hashlib
import json
import os
import re

import pytest

from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentConfig,
    all_experiments,
    app_table,
    clear_result_caches,
    frame_result,
    frame_trace,
    get_experiment,
)
from repro.experiments.runner import run_experiments
from repro.workloads.apps import ALL_APPS, FrameSpec

#: 1/16 linear scale and a single app's frame keep these tests quick.
MICRO = ExperimentConfig(scale=0.0625, frames_per_app=1, cache_dir=None)
#: perfbench's pinned CSV digests of every experiment (its paper-figs
#: workload at seed 0: scale 1/32, frame 0 of every app).
PINNED = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "pinned.json"
)


def test_registry_covers_all_paper_artifacts():
    registry = all_experiments()
    expected = {
        "fig01", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "table1", "table6",
    }
    assert expected <= set(registry)


def test_unknown_experiment_rejected():
    with pytest.raises(ReproError):
        get_experiment("fig99")


def test_config_frame_selection():
    assert len(MICRO.frames()) == 12
    full = dataclasses.replace(MICRO, frames_per_app=None)
    assert len(full.frames()) == 52


def test_trace_cache_round_trip(tmp_path):
    config = dataclasses.replace(MICRO, cache_dir=str(tmp_path))
    spec = FrameSpec(ALL_APPS[0], 0)
    first = frame_trace(spec, config)
    again = frame_trace(spec, config)
    assert len(first) == len(again)
    assert (tmp_path / "traces").exists()


def test_npz_only_cache_entry_is_regenerated_as_gsct(tmp_path):
    """The cache reads only ``.gsct``: a leftover ``.npz`` entry under
    the same stem is ignored, and the frame is regenerated."""
    config = dataclasses.replace(MICRO, cache_dir=str(tmp_path))
    spec = FrameSpec(ALL_APPS[0], 0)
    stem = tmp_path / "traces" / f"{spec.app.abbrev}_f0_s{config.scale:g}"
    stem.parent.mkdir(parents=True)
    stale = stem.parent / (stem.name + ".npz")
    stale.write_bytes(b"PK\x03\x04 a leftover archive")
    trace = frame_trace(spec, config)
    expected = config.trace_source().frame_trace(
        spec.app.abbrev, 0, config.scale
    )
    assert len(trace) == len(expected)
    assert (tmp_path / "traces" / (stem.name + ".gsct")).exists()
    assert stale.read_bytes() == b"PK\x03\x04 a leftover archive"


def test_result_cache_reuses_objects():
    clear_result_caches()
    spec = FrameSpec(ALL_APPS[0], 0)
    a = frame_result(spec, "drrip", MICRO)
    b = frame_result(spec, "drrip", MICRO)
    assert a is b


def test_table1_and_table6_run():
    for experiment_id in ("table1", "table6"):
        tables = get_experiment(experiment_id).run(MICRO)
        assert tables and tables[0].rows


def test_fig04_mix_rows():
    tables = get_experiment("fig04").run(MICRO)
    table = tables[0]
    assert table.headers[0] == "Application"
    assert table.rows[-1][0] == "Average"
    # Each row's stream percentages sum to ~100.
    for row in table.rows:
        assert sum(cell for cell in row[1:]) == pytest.approx(100.0, abs=0.5)


def test_fig01_normalization_sane():
    tables = get_experiment("fig01").run(MICRO)
    table = tables[0]
    belady = table.column("Belady-OPT")
    assert all(value <= 1.0 for value in belady)


def test_fig08_percentages_in_range():
    table = get_experiment("fig08").run(MICRO)[0]
    for row in table.rows:
        assert 0.0 <= row[1] <= 100.0
        assert 0.0 <= row[2] <= 100.0


def test_app_table_averages_frames_not_rows():
    """App A's frames give 1.0 and 2.0 and app B's one frame 6.0: the
    rows read 1.5 and 6.0, and Average is the mean over the three
    frames (3.0), not over the two rows (3.75)."""
    app_a, app_b = ALL_APPS[0], ALL_APPS[1]
    values = {
        (app_a.abbrev, 0): [1.0, None],
        (app_b.abbrev, 0): [6.0, None],
        (app_a.abbrev, 1): [2.0, 4.0],
    }
    frames = [FrameSpec(app_a, 0), FrameSpec(app_b, 0), FrameSpec(app_a, 1)]
    calls = []

    def cells(spec):
        calls.append(spec)
        return values[(spec.app.abbrev, spec.frame_index)]

    table = app_table("T", ["X", "Y"], frames, cells)
    assert calls == frames  # once per frame, in frame order
    assert table.headers == ["Application", "X", "Y"]
    # A None cell is skipped; a column of Nones stays None.
    assert table.rows == [
        [app_a.abbrev, 1.5, 4.0],
        [app_b.abbrev, 6.0, None],
        ["Average", 3.0, 4.0],
    ]


def test_performance_table_runs_each_timing_model_once(tmp_path, monkeypatch):
    from repro.experiments import fig15
    from repro.gpu.timing import FrameTimingSimulator

    config = ExperimentConfig(
        scale=0.03125, frames_per_app=1, cache_dir=str(tmp_path)
    )
    runs = []
    run = FrameTimingSimulator.run

    def counted(self, trace, record, *args, **kwargs):
        runs.append(record.result.policy)
        return run(self, trace, record, *args, **kwargs)

    monkeypatch.setattr(FrameTimingSimulator, "run", counted)
    clear_result_caches()
    try:
        table = fig15.performance_table("T", config, config.system())
    finally:
        clear_result_caches()
    frames = config.frames()
    assert len(table.rows) == len(frames) + 1
    assert sorted(runs) == sorted(
        [fig15.BASELINE, *fig15.POLICIES] * len(frames)
    )


def test_every_experiment_csv_matches_its_pin(tmp_path):
    """Each experiment's CSV bytes, hashed as perfbench hashes them: the
    first 16 hex digits of the sha256 over ``{id}_{n}.csv`` in ``n``
    order."""
    with open(PINNED, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)["paper-figs"]
    config = ExperimentConfig(
        scale=0.03125, frames_per_app=1, cache_dir=str(tmp_path / "cache")
    )
    ids = sorted(all_experiments())
    csv_dir = tmp_path / "csv"
    clear_result_caches()
    try:
        assert run_experiments(ids, config, str(csv_dir)) == 0
    finally:
        clear_result_caches()
    digests = {}
    for experiment_id in ids:
        pattern = re.compile(rf"^{re.escape(experiment_id)}_(\d+)\.csv$")
        names = sorted(
            (int(match.group(1)), match.group(0))
            for match in map(pattern.match, os.listdir(csv_dir))
            if match
        )
        payload = b"".join((csv_dir / name).read_bytes() for _, name in names)
        digests[experiment_id] = hashlib.sha256(payload).hexdigest()[:16]
    assert digests == pinned
