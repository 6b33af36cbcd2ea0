"""Benchmark-regression gate for the CI bench-smoke job.

Compares a freshly generated ``BENCH_parallel.json`` (see
``bench_throughput.py``) against the committed ``BENCH_baseline.json``
and fails if any policy's accesses/sec dropped more than the threshold
below baseline::

    PYTHONPATH=src python benchmarks/check_regression.py \\
        --report BENCH_parallel.json --baseline BENCH_baseline.json

The delta table prints either way, so every CI run leaves a throughput
record in its log.  A policy present in the baseline but missing from
the report is a failure (a silently dropped benchmark is a regression
too); new policies in the report are reported but never gate.  Refresh
the committed baseline with ``--update`` after an intentional
performance change.

``--sweep-report BENCH_sweep.json`` additionally (or, with
``--sweep-only``, exclusively) gates the sweep orchestrator's overhead
over a bare process pool (see ``bench_sweep.py``) against
``--sweep-overhead-limit`` (default 5%).  When the report carries a
``traced_overhead_fraction`` (tracing-enabled sweep vs plain sweep),
that fraction is held to the same limit.

``--fastsim-report BENCH_fastsim_ci.json --fastsim-baseline
BENCH_fastsim.json`` gates the fast-engine replay throughput (see
``bench_fastsim.py``) per workload and policy under the same
``--threshold`` drop rule, printing the speedup delta table either way.

``--serve-report BENCH_serve_ci.json --serve-baseline
BENCH_serve.json`` gates the ``gspc-serve`` load benchmark (see
``bench_serve.py``): request throughput may not drop, and p99 latency
may not rise, by more than ``--threshold``.  ``--serve-only`` skips
the main throughput gate, mirroring ``--sweep-only``.

Mode flags are validated strictly: combinations that would silently
skip a requested gate (``--update`` alongside any report flag,
``--sweep-only``/``--serve-only`` alongside a gate they don't run)
are usage errors, exit code 2.
"""

import argparse
import json
import sys

DEFAULT_THRESHOLD = 0.25
DEFAULT_SWEEP_OVERHEAD_LIMIT = 0.05


def load_throughput(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    table = report.get("accesses_per_second")
    if not isinstance(table, dict) or not table:
        raise SystemExit(f"error: {path} has no accesses_per_second table")
    return {name: float(value) for name, value in table.items()}


def compare(baseline: dict, current: dict, threshold: float):
    """Per-policy delta rows plus the list of failures."""
    rows = []
    failures = []
    for policy in sorted(set(baseline) | set(current)):
        base = baseline.get(policy)
        now = current.get(policy)
        if base is None:
            rows.append((policy, None, now, None, "new"))
            continue
        if now is None:
            rows.append((policy, base, None, None, "MISSING"))
            failures.append(f"{policy}: missing from report")
            continue
        delta = (now - base) / base
        status = "ok"
        if delta < -threshold:
            status = "FAIL"
            failures.append(
                f"{policy}: {now:,.0f}/s is {-delta:.1%} below "
                f"baseline {base:,.0f}/s (limit {threshold:.0%})"
            )
        rows.append((policy, base, now, delta, status))
    return rows, failures


def print_table(rows) -> None:
    print(f"{'policy':12s} {'baseline/s':>14s} {'current/s':>14s} "
          f"{'delta':>8s}  status")
    for policy, base, now, delta, status in rows:
        base_s = f"{base:,.0f}" if base is not None else "-"
        now_s = f"{now:,.0f}" if now is not None else "-"
        delta_s = f"{delta:+.1%}" if delta is not None else "-"
        print(f"{policy:12s} {base_s:>14s} {now_s:>14s} {delta_s:>8s}  {status}")


def check_sweep_overhead(path: str, limit: float) -> list:
    """Failure messages for the sweep-orchestration overhead gate."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    overhead = report.get("overhead_fraction")
    if not isinstance(overhead, (int, float)) or isinstance(overhead, bool):
        return [f"{path} has no numeric overhead_fraction"]
    print(
        f"sweep orchestration: bare {report.get('bare_min', 0):.2f}s vs "
        f"sweep {report.get('sweep_min', 0):.2f}s "
        f"(overhead {overhead:+.1%}, limit {limit:.0%})"
    )
    failures = []
    if overhead > limit:
        failures.append(
            f"sweep orchestration overhead {overhead:.1%} exceeds "
            f"the {limit:.0%} limit"
        )
    # Tracing gate: only present in reports from bench_sweep.py versions
    # that time the traced side; older reports pass vacuously.
    traced = report.get("traced_overhead_fraction")
    if traced is not None:
        if not isinstance(traced, (int, float)) or isinstance(traced, bool):
            failures.append(f"{path} has a non-numeric traced_overhead_fraction")
        else:
            print(
                f"sweep tracing: sweep {report.get('sweep_min', 0):.2f}s vs "
                f"traced {report.get('traced_min', 0):.2f}s "
                f"(overhead {traced:+.1%}, limit {limit:.0%})"
            )
            if traced > limit:
                failures.append(
                    f"sweep tracing overhead {traced:.1%} exceeds "
                    f"the {limit:.0%} limit"
                )
    return failures


def _load_fastsim_rows(path: str) -> dict:
    """``(workload, policy) -> row`` from a ``bench_fastsim.py`` report."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    workloads = report.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise SystemExit(f"error: {path} has no workloads table")
    return {
        (workload, policy): row
        for workload, section in workloads.items()
        for policy, row in section.get("results", {}).items()
    }


def check_fastsim(report_path: str, baseline_path: str, threshold: float) -> list:
    """Failure messages for the fast-engine throughput gate.

    Gates ``fast_accesses_per_second`` per (workload, policy) with the
    same drop rule as the main table, and prints the speedup delta so
    every CI log records how far ahead of the reference engine each
    kernel currently is.
    """
    current = _load_fastsim_rows(report_path)
    baseline = _load_fastsim_rows(baseline_path)
    print(f"{'workload':10s} {'policy':12s} {'baseline':>14s} {'current':>14s} "
          f"{'delta':>8s} {'speedup':>14s}  status")
    failures = []
    for key in sorted(set(baseline) | set(current)):
        workload, policy = key
        base = baseline.get(key)
        now = current.get(key)
        if base is None:
            speed = f"x{now['speedup']:.2f}"
            print(f"{workload:10s} {policy:12s} {'-':>14s} "
                  f"{now['fast_accesses_per_second']:>14,.0f} {'-':>8s} "
                  f"{speed:>14s}  new")
            continue
        if now is None:
            print(f"{workload:10s} {policy:12s} "
                  f"{base['fast_accesses_per_second']:>14,.0f} {'-':>14s} "
                  f"{'-':>8s} {'-':>14s}  MISSING")
            failures.append(f"fastsim {workload}/{policy}: missing from report")
            continue
        base_fast = float(base["fast_accesses_per_second"])
        now_fast = float(now["fast_accesses_per_second"])
        delta = (now_fast - base_fast) / base_fast
        speed = f"x{base['speedup']:.2f}->x{now['speedup']:.2f}"
        status = "ok"
        if delta < -threshold:
            status = "FAIL"
            failures.append(
                f"fastsim {workload}/{policy}: {now_fast:,.0f}/s is "
                f"{-delta:.1%} below baseline {base_fast:,.0f}/s "
                f"(limit {threshold:.0%})"
            )
        print(f"{workload:10s} {policy:12s} {base_fast:>14,.0f} "
              f"{now_fast:>14,.0f} {delta:>+8.1%} {speed:>14s}  {status}")
    return failures


def check_serve(report_path: str, baseline_path: str, threshold: float) -> list:
    """Failure messages for the gspc-serve load gate.

    Throughput is better-higher, p99 latency better-lower; each is held
    to the same fractional limit.  p50 prints for the log but never
    gates — median latency on a shared runner is too noisy to block on.
    """
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = []
    print(f"{'metric':16s} {'baseline':>14s} {'current':>14s} "
          f"{'delta':>8s}  status")
    # (key, better, gated, format) — "delta" is always (now-base)/base;
    # the sign that fails depends on which direction is better.
    metrics = (
        ("throughput_rps", "higher", True, "{:,.0f}"),
        ("p99_seconds", "lower", True, "{:.4f}"),
        ("p50_seconds", "lower", False, "{:.4f}"),
    )
    for key, better, gated, fmt in metrics:
        base = baseline.get(key)
        now = report.get(key)
        for path, value in ((baseline_path, base), (report_path, now)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SystemExit(f"error: {path} has no numeric {key}")
        delta = (now - base) / base if base else 0.0
        regressed = delta < -threshold if better == "higher" else delta > threshold
        status = "info" if not gated else ("FAIL" if regressed else "ok")
        print(f"{key:16s} {fmt.format(base):>14s} {fmt.format(now):>14s} "
              f"{delta:>+8.1%}  {status}")
        if gated and regressed:
            worse = "below" if better == "higher" else "above"
            failures.append(
                f"serve {key}: {fmt.format(now)} is {abs(delta):.1%} {worse} "
                f"baseline {fmt.format(base)} (limit {threshold:.0%})"
            )
    return failures


def validate_modes(parser, args) -> None:
    """Reject flag combinations that would silently skip a gate.

    Historically ``--update`` and ``--sweep-only`` simply ignored any
    other report flag on the command line — a CI edit could believe it
    was gating something it never ran.  Every such combination is now a
    usage error (argparse ``error()``, exit code 2).
    """
    exclusive = [
        flag
        for flag, enabled in (
            ("--update", args.update),
            ("--sweep-only", args.sweep_only),
            ("--serve-only", args.serve_only),
        )
        if enabled
    ]
    if len(exclusive) > 1:
        parser.error(" and ".join(exclusive) + " are mutually exclusive")
    if args.sweep_only and not args.sweep_report:
        parser.error("--sweep-only requires --sweep-report")
    if args.serve_only and not args.serve_report:
        parser.error("--serve-only requires --serve-report")
    ignored = []
    if args.update:
        ignored = [
            flag
            for flag, value in (
                ("--sweep-report", args.sweep_report),
                ("--fastsim-report", args.fastsim_report),
                ("--serve-report", args.serve_report),
            )
            if value
        ]
    elif args.sweep_only:
        ignored = [
            flag
            for flag, value in (
                ("--fastsim-report", args.fastsim_report),
                ("--serve-report", args.serve_report),
            )
            if value
        ]
    elif args.serve_only:
        ignored = [
            flag
            for flag, value in (
                ("--sweep-report", args.sweep_report),
                ("--fastsim-report", args.fastsim_report),
            )
            if value
        ]
    if ignored:
        parser.error(
            f"{exclusive[0]} would silently skip {', '.join(ignored)}; "
            "run them in a separate invocation"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail CI when benchmark throughput regresses."
    )
    parser.add_argument(
        "--report", default="BENCH_parallel.json", help="fresh bench report"
    )
    parser.add_argument(
        "--baseline", default="BENCH_baseline.json", help="committed baseline"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="max tolerated fractional drop (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the report instead of gating",
    )
    parser.add_argument(
        "--sweep-report",
        metavar="PATH",
        help="also gate a bench_sweep.py report (BENCH_sweep.json)",
    )
    parser.add_argument(
        "--sweep-overhead-limit",
        type=float,
        default=DEFAULT_SWEEP_OVERHEAD_LIMIT,
        help="max tolerated sweep-orchestration overhead (default 0.05)",
    )
    parser.add_argument(
        "--sweep-only",
        action="store_true",
        help="skip the throughput gate; check only --sweep-report",
    )
    parser.add_argument(
        "--fastsim-report",
        metavar="PATH",
        help="also gate a fresh bench_fastsim.py report",
    )
    parser.add_argument(
        "--fastsim-baseline",
        metavar="PATH",
        default="BENCH_fastsim.json",
        help="committed fast-engine baseline (default BENCH_fastsim.json)",
    )
    parser.add_argument(
        "--serve-report",
        metavar="PATH",
        help="also gate a fresh bench_serve.py report",
    )
    parser.add_argument(
        "--serve-baseline",
        metavar="PATH",
        default="BENCH_serve.json",
        help="committed serve-load baseline (default BENCH_serve.json)",
    )
    parser.add_argument(
        "--serve-only",
        action="store_true",
        help="skip the throughput gate; check only --serve-report",
    )
    args = parser.parse_args(argv)
    validate_modes(parser, args)

    if args.sweep_only:
        failures = check_sweep_overhead(args.sweep_report, args.sweep_overhead_limit)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if not failures:
            print("sweep orchestration overhead within limit")
        return 1 if failures else 0

    if args.serve_only:
        failures = check_serve(
            args.serve_report, args.serve_baseline, args.threshold
        )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if not failures:
            print(f"serve load within {args.threshold:.0%} of baseline")
        return 1 if failures else 0

    current = load_throughput(args.report)
    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump({"accesses_per_second": current}, handle, indent=2)
            handle.write("\n")
        print(f"updated {args.baseline} from {args.report}")
        return 0

    baseline = load_throughput(args.baseline)
    rows, failures = compare(baseline, current, args.threshold)
    print_table(rows)
    if args.sweep_report:
        failures.extend(
            check_sweep_overhead(args.sweep_report, args.sweep_overhead_limit)
        )
    if args.fastsim_report:
        print()
        failures.extend(
            check_fastsim(
                args.fastsim_report, args.fastsim_baseline, args.threshold
            )
        )
    if args.serve_report:
        print()
        failures.extend(
            check_serve(args.serve_report, args.serve_baseline, args.threshold)
        )
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nall policies within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
