"""Render benchmark JSON reports as GitHub job-summary markdown.

CI appends the output to ``$GITHUB_STEP_SUMMARY`` so speedup and
miss-rate tables are readable on the run page without downloading
artifacts::

    PYTHONPATH=src python benchmarks/ci_summary.py \
        BENCH_sweep_ci.json \
        --fastsim BENCH_fastsim_ci.json >> "$GITHUB_STEP_SUMMARY"

    PYTHONPATH=src python benchmarks/ci_summary.py \
        --workloads BENCH_workloads.json >> "$GITHUB_STEP_SUMMARY"

Each positional report renders its gated ``metrics`` map (the schema
``check_regression.py`` compares).  Every section is optional; missing
files are skipped with a note so a partially failed job still renders
what it measured.
"""

import argparse
import json
import sys

from check_regression import fmt


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"> `{path}` unavailable: {exc}\n")
        return None


def section_fastsim(path: str) -> None:
    report = _load(path)
    if report is None:
        return
    print("## Fast-engine speedup\n")
    print("| workload | policy | reference acc/s | fast acc/s | speedup |")
    print("|---|---|---:|---:|---:|")
    for workload, data in sorted(report.get("workloads", {}).items()):
        for policy, result in sorted(data.get("results", {}).items()):
            print(
                f"| {workload} | {policy} "
                f"| {result['reference_accesses_per_second']:,.0f} "
                f"| {result['fast_accesses_per_second']:,.0f} "
                f"| x{result['speedup']:.2f} |"
            )
    print()


def section_metrics(path: str) -> None:
    report = _load(path)
    if report is None:
        return
    print(f"## Gated metrics: `{path}`\n")
    print("| metric | value | unit | better | limit |")
    print("|---|---:|---|---|---:|")
    for name, entry in sorted(report.get("metrics", {}).items()):
        limit = fmt(entry["limit"]) if "limit" in entry else "—"
        print(
            f"| {name} | {fmt(entry['value'])} | {entry['unit']} "
            f"| {entry['better']} | {limit} |"
        )
    print()


def section_workloads(path: str) -> None:
    report = _load(path)
    if report is None:
        return
    policies = report["policies"]
    print("## Workload-family characterization\n")
    header = " | ".join(policies)
    print(f"| family | preset | envelope | {header} |")
    print("|---|---|---|" + "---:|" * len(policies))
    for family, data in report["families"].items():
        for preset in data["presets"]:
            verdict = "conforms" if preset["conformant"] else "violates"
            rates = " | ".join(
                f"{preset['miss_rates'][p]:.4f}" for p in policies
            )
            print(
                f"| {family} | {preset['abbrev']} | {verdict} | {rates} |"
            )
        means = " | ".join(
            f"{data['mean_miss_rates'][p]:.4f}" for p in policies
        )
        print(
            f"| {family} | **mean** "
            f"| {data['distinct_policies']}/{len(policies)} distinct "
            f"| {means} |"
        )
    print()
    overlaps = report["families"].get("coherent", {}).get(
        "inter_frame_overlap"
    )
    if overlaps:
        print("Inter-frame block overlap (similarity knob): ", end="")
        print(
            ", ".join(f"{k} {v:.3f}" for k, v in overlaps.items())
        )
        print()
    for failure in report.get("failures", []):
        print(f"**FAIL**: {failure}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Render benchmark JSONs as job-summary markdown."
    )
    parser.add_argument(
        "reports", nargs="*", help="reports whose metrics maps to render"
    )
    parser.add_argument("--fastsim", help="BENCH_fastsim_ci.json path")
    parser.add_argument("--workloads", help="BENCH_workloads.json path")
    args = parser.parse_args(argv)
    if not any((args.reports, args.fastsim, args.workloads)):
        parser.error("give at least one report path")
    for path in args.reports:
        section_metrics(path)
    if args.fastsim:
        section_fastsim(args.fastsim)
    if args.workloads:
        section_workloads(args.workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
