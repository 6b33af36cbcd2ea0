"""Benchmark-regression gate: one comparison loop over ``metrics`` maps.

Each gated bench script (``bench_fastsim.py``, ``bench_sweep.py``,
``bench_serve.py``) writes the numbers it gates as
``"metrics": {NAME: {"value": V, "unit": U, "better": "higher"|"lower"}}``;
an entry may add ``"limit"``, an absolute bound in its own unit.  For
each ``REPORT BASELINE`` pair the gate prints a delta table, and:

* a metric fails when it is worse than its baseline entry's ``limit``
  or, without one, more than 25% worse than the baseline value;
* a baseline metric missing from the report fails;
* a metric only in the report prints as ``new``.

Exit 1 on any failure or on an unreadable or malformed file, 2 on a
usage error::

    python benchmarks/check_regression.py \\
        BENCH_fastsim_ci.json BENCH_fastsim.json \\
        BENCH_sweep_ci.json BENCH_sweep.json

Refresh a baseline by writing a fresh report over it (each bench
script's ``--out BENCH_<name>.json``).
"""

import argparse
import json
import math
import sys

#: Largest tolerated fractional worsening against a baseline value.
THRESHOLD = 0.25


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def load_metrics(path: str) -> dict:
    """The validated ``metrics`` map of one report or baseline file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {path}: {exc}") from None
    metrics = report.get("metrics") if isinstance(report, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        raise SystemExit(f"error: {path} has no metrics map")
    for name, entry in metrics.items():
        if not (
            isinstance(entry, dict)
            and _is_number(entry.get("value"))
            and isinstance(entry.get("unit"), str)
            and entry.get("better") in ("higher", "lower")
            and _is_number(entry.get("limit", 0))
        ):
            raise SystemExit(
                f"error: {path}: metric {name!r} needs a finite value, a unit, "
                'better "higher" or "lower", and a finite limit if any'
            )
    return metrics


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def check_pair(report_path: str, baseline_path: str) -> list:
    """Print one pair's delta table; return its failure messages."""
    report, baseline = load_metrics(report_path), load_metrics(baseline_path)
    print(f"{report_path} vs {baseline_path}")
    print(f"  {'metric':24s} {'unit':10s} {'baseline':>12s} {'current':>12s}  delta")
    failures = []
    for name in sorted(baseline.keys() | report.keys()):
        base, now = baseline.get(name), report.get(name)
        if base is None:
            delta = "new"
        elif now is None:
            delta = "MISSING"
            failures.append(f"{report_path}: {name} is missing")
        else:
            higher = base["better"] == "higher"
            if "limit" in base:
                bound, rule = base["limit"], "its limit"
            else:
                bound = base["value"] * (1 - THRESHOLD if higher else 1 + THRESHOLD)
                rule = f"{THRESHOLD:.0%} off baseline"
            change = now["value"] - base["value"]
            delta = f"{change / abs(base['value']):+.1%}" if base["value"] else "-"
            worse = now["value"] < bound if higher else now["value"] > bound
            if worse:
                delta += " FAIL"
                failures.append(
                    f"{report_path}: {name} {fmt(now['value'])} {base['unit']} is "
                    f"{'below' if higher else 'above'} {fmt(bound)} ({rule})"
                )
        cells = [fmt(entry["value"]) if entry else "-" for entry in (base, now)]
        unit = (base or now)["unit"]
        print(f"  {name:24s} {unit:10s} {cells[0]:>12s} {cells[1]:>12s}  {delta}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a benchmark report's metrics regress "
        "against its baseline's."
    )
    parser.add_argument(
        "files",
        nargs="+",
        metavar="REPORT BASELINE",
        help="a fresh report, then the committed baseline it is gated against",
    )
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("files must come in REPORT BASELINE pairs")
    failures = []
    for report, baseline in zip(args.files[::2], args.files[1::2]):
        failures += check_pair(report, baseline)
        print()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all metrics within bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
