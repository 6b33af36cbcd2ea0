"""Unit tests for benchmarks/check_regression.py.

The gate compares ``metrics`` maps — ``{name: {value, unit, better,
[limit]}}`` — in ``REPORT BASELINE`` pairs with one rule set: worse than
the baseline's ``limit`` or, without one, more than 25% worse than the
baseline value fails; a baseline metric missing from the report fails;
a report-only metric is ``new``.  The tests cover each benchmark's
metric shapes (replay throughput, fast-engine rates, sweep overheads,
serve load), malformed input, and that the removed mode flags are now
usage errors (exit code 2).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_regression", _ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def metric(value, better="higher", unit="accesses/s", **extra) -> dict:
    return {"value": value, "unit": unit, "better": better, **extra}


def write_json(path, data) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return str(path)


def write_metrics(path, metrics: dict, **fields) -> str:
    return write_json(path, {**fields, "metrics": metrics})


@pytest.fixture
def throughput_pair(tmp_path):
    baseline = write_metrics(
        tmp_path / "baseline.json", {"drrip": metric(1000.0), "gspc": metric(800.0)}
    )
    report = write_metrics(
        tmp_path / "report.json", {"drrip": metric(990.0), "gspc": metric(820.0)}
    )
    return baseline, report


# -- replay throughput: higher is better, 25% rule ----------------------------

def test_throughput_within_threshold_passes(throughput_pair, capsys):
    baseline, report = throughput_pair
    assert check_regression.main([report, baseline]) == 0
    assert "all metrics within bounds" in capsys.readouterr().out


def test_throughput_drop_fails(tmp_path, throughput_pair, capsys):
    baseline, _ = throughput_pair
    report = write_metrics(
        tmp_path / "slow.json", {"drrip": metric(500.0), "gspc": metric(820.0)}
    )
    assert check_regression.main([report, baseline]) == 1
    err = capsys.readouterr().err
    assert "drrip 500 accesses/s is below 750" in err
    assert "gspc" not in err


def test_missing_policy_fails(tmp_path, throughput_pair, capsys):
    baseline, _ = throughput_pair
    report = write_metrics(
        tmp_path / "partial.json",
        {"drrip": metric(1000.0), "lru": metric(5.0)},
    )
    assert check_regression.main([report, baseline]) == 1
    captured = capsys.readouterr()
    assert "gspc is missing" in captured.err
    # A report-only metric prints as new and never gates.
    assert "lru" not in captured.err
    assert "new" in captured.out


def test_update_rewrites_baseline(tmp_path, throughput_pair):
    """A baseline is refreshed by writing a report over it."""
    _, report = throughput_pair
    baseline = write_metrics(
        tmp_path / "stale.json", {"drrip": metric(5000.0), "gspc": metric(800.0)}
    )
    assert check_regression.main([report, baseline]) == 1
    shutil.copyfile(report, baseline)
    assert check_regression.main([report, baseline]) == 0


@pytest.mark.parametrize("name", ["BENCH_fastsim", "BENCH_sweep", "BENCH_serve"])
def test_committed_baselines_gate_clean_against_themselves(name, capsys):
    path = str(_ROOT / f"{name}.json")
    assert check_regression.main([path, path]) == 0
    capsys.readouterr()


# -- sweep overheads: an absolute limit from the baseline ---------------------

def _overheads(orchestration: float, tracing: float, limit: float = 0.05) -> dict:
    return {
        name: metric(value, "lower", "fraction", limit=limit)
        for name, value in (
            ("orchestration_overhead", orchestration),
            ("tracing_overhead", tracing),
        )
    }


def test_sweep_only_gates_overhead(tmp_path, capsys):
    baseline = write_metrics(tmp_path / "base.json", _overheads(0.01, 0.01))
    # Double the baseline value but under the limit: the limit rules.
    good = write_metrics(tmp_path / "good.json", _overheads(0.02, 0.01))
    assert check_regression.main([good, baseline]) == 0
    bad = write_metrics(tmp_path / "bad.json", _overheads(0.5, 0.01))
    assert check_regression.main([bad, baseline]) == 1
    assert "orchestration_overhead 0.5 fraction is above 0.05" in (
        capsys.readouterr().err
    )


def test_sweep_tracing_overhead_gates(tmp_path, capsys):
    baseline = write_metrics(tmp_path / "base.json", _overheads(0.01, 0.01))
    report = write_metrics(tmp_path / "traced.json", _overheads(0.01, 0.4))
    assert check_regression.main([report, baseline]) == 1
    assert "tracing_overhead 0.4 fraction is above 0.05" in capsys.readouterr().err
    # A report that dropped the tracing number fails like any other.
    untraced = _overheads(0.01, 0.01)
    del untraced["tracing_overhead"]
    report = write_metrics(tmp_path / "untraced.json", untraced)
    assert check_regression.main([report, baseline]) == 1
    assert "tracing_overhead is missing" in capsys.readouterr().err


def test_limit_comes_from_the_baseline(tmp_path, capsys):
    baseline = write_metrics(tmp_path / "base.json", _overheads(0.01, 0.01))
    looser = write_metrics(
        tmp_path / "looser.json", _overheads(0.06, 0.01, limit=0.10)
    )
    assert check_regression.main([looser, baseline]) == 1
    assert "orchestration_overhead 0.06" in capsys.readouterr().err


# -- fast-engine rates: several pairs in one call -----------------------------

def test_fastsim_gate_passes_and_fails(tmp_path, throughput_pair, capsys):
    baseline, report = throughput_pair
    fast_base, fast_ok, fast_bad = (
        write_metrics(tmp_path / f"fast-{label}.json", {"DMC/drrip": metric(rate)})
        for label, rate in (("base", 1000.0), ("ok", 950.0), ("bad", 100.0))
    )
    assert check_regression.main([report, baseline, fast_ok, fast_base]) == 0
    assert check_regression.main([report, baseline, fast_bad, fast_base]) == 1
    assert f"{fast_bad}: DMC/drrip 100 accesses/s" in capsys.readouterr().err


# -- serve load: one higher-is-better and one lower-is-better metric ----------

def _serve_report(path, rps: float, p99: float, p50: float = 0.002) -> str:
    return write_metrics(
        path,
        {
            "throughput_rps": metric(rps, "higher", "req/s"),
            "p99_seconds": metric(p99, "lower", "s"),
        },
        p50_seconds=p50,
    )


def test_serve_gate_passes_within_threshold(tmp_path, capsys):
    baseline = _serve_report(tmp_path / "serve-base.json", 1000.0, 0.004)
    report = _serve_report(tmp_path / "serve-now.json", 900.0, 0.0045)
    assert check_regression.main([report, baseline]) == 0
    assert "all metrics within bounds" in capsys.readouterr().out


def test_serve_gate_fails_on_throughput_drop(tmp_path, capsys):
    baseline = _serve_report(tmp_path / "serve-base.json", 1000.0, 0.004)
    report = _serve_report(tmp_path / "serve-now.json", 500.0, 0.004)
    assert check_regression.main([report, baseline]) == 1
    assert "throughput_rps 500 req/s is below 750" in capsys.readouterr().err


def test_serve_gate_fails_on_p99_rise_but_not_p50(tmp_path, capsys):
    baseline = _serve_report(tmp_path / "serve-base.json", 1000.0, 0.004)
    # p50 doubles (outside the metrics map), p99 rises past the limit.
    report = _serve_report(tmp_path / "serve-now.json", 1000.0, 0.006, p50=0.004)
    assert check_regression.main([report, baseline]) == 1
    err = capsys.readouterr().err
    assert "p99_seconds 0.006 s is above 0.005" in err
    assert "p50_seconds" not in err


def test_lower_is_better_metric_fails_on_rise_passes_on_fall(tmp_path, capsys):
    baseline, faster, slower = (
        write_metrics(tmp_path / f"{label}.json", {"wall": metric(wall, "lower", "s")})
        for label, wall in (("base", 10.0), ("fast", 5.0), ("slow", 12.6))
    )
    assert check_regression.main([faster, baseline]) == 0
    assert check_regression.main([slower, baseline]) == 1
    assert "wall 12.6 s is above 12.5" in capsys.readouterr().err


def test_serve_gate_rejects_reports_missing_metrics(tmp_path, capsys):
    baseline = _serve_report(tmp_path / "serve-base.json", 1000.0, 0.004)
    report = write_metrics(
        tmp_path / "serve-now.json", {"p99_seconds": metric(0.004, "lower", "s")}
    )
    assert check_regression.main([report, baseline]) == 1
    assert "throughput_rps is missing" in capsys.readouterr().err
    # Malformed files are rejected with the file and metric named.
    old_format = write_json(tmp_path / "old.json", {"throughput_rps": 1000.0})
    with pytest.raises(SystemExit, match="old.json has no metrics map"):
        check_regression.main([old_format, baseline])
    for bad in ("fast", True, float("nan")):
        entry = write_metrics(
            tmp_path / "bad.json", {"throughput_rps": metric(bad, unit="req/s")}
        )
        with pytest.raises(SystemExit, match="bad.json: metric 'throughput_rps'"):
            check_regression.main([entry, baseline])
    no_better = write_metrics(
        tmp_path / "bad.json", {"throughput_rps": metric(1.0, better="up")}
    )
    with pytest.raises(SystemExit, match="bad.json: metric 'throughput_rps'"):
        check_regression.main([no_better, baseline])
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"metrics": {', encoding="utf-8")
    with pytest.raises(SystemExit, match="truncated.json"):
        check_regression.main([str(truncated), baseline])
    capsys.readouterr()


def test_serve_gate_composes_with_main_table(tmp_path, throughput_pair, capsys):
    baseline, report = throughput_pair
    serve_base = _serve_report(tmp_path / "serve-base.json", 1000.0, 0.004)
    serve_now = _serve_report(tmp_path / "serve-now.json", 980.0, 0.004)
    assert check_regression.main([report, baseline, serve_now, serve_base]) == 0
    out = capsys.readouterr().out
    assert f"{report} vs {baseline}" in out
    assert f"{serve_now} vs {serve_base}" in out


# -- usage errors exit 2: the old mode flags are gone, files come in pairs ----

def test_unpaired_file_exits_2(throughput_pair, capsys):
    baseline, report = throughput_pair
    with pytest.raises(SystemExit) as excinfo:
        check_regression.main([report, baseline, report])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--sweep-only"],
        ["--serve-only"],
        ["--sweep-only", "--serve-only"],
        ["--update", "--sweep-only"],
        ["--update", "--sweep-report", "x.json"],
        ["--update", "--fastsim-report", "x.json"],
        ["--update", "--serve-report", "x.json"],
        ["--sweep-only", "--sweep-report", "s.json",
         "--fastsim-report", "x.json"],
        ["--sweep-only", "--sweep-report", "s.json",
         "--serve-report", "x.json"],
        ["--serve-only", "--serve-report", "s.json",
         "--sweep-report", "x.json"],
        ["--serve-only", "--serve-report", "s.json",
         "--fastsim-report", "x.json"],
    ],
)
def test_bad_mode_combinations_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        check_regression.main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()
