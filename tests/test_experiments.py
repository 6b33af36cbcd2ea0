"""Experiment-framework tests (micro scale: fast but end-to-end)."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentConfig,
    all_experiments,
    clear_result_caches,
    frame_result,
    frame_trace,
    get_experiment,
)
from repro.workloads.apps import ALL_APPS, FrameSpec

#: 1/16 linear scale and a single app's frame keep these tests quick.
MICRO = ExperimentConfig(scale=0.0625, frames_per_app=1, cache_dir=None)


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
    from repro.trace import synth
    from repro.trace.io import save_trace

    config = dataclasses.replace(MICRO, cache_dir=str(tmp_path))
    spec = FrameSpec(ALL_APPS[0], 0)
    stem = tmp_path / "traces" / f"{spec.app.abbrev}_f0_s{config.scale:g}"
    stale = synth.cyclic_scan(16, 2)
    save_trace(stale, str(stem) + ".npz")
    trace = frame_trace(spec, config)
    expected = config.trace_source().frame_trace(
        spec.app.abbrev, 0, config.scale
    )
    assert len(trace) == len(expected) != len(stale)
    assert (tmp_path / "traces" / (stem.name + ".gsct")).exists()


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
