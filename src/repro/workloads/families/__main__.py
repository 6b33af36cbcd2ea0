"""``python -m repro.workloads.families`` — list and envelope-check presets.

Subcommands
-----------
``list``
    Print the preset table (family, name, abbrev, frames, knobs).
``check NAME [NAME ...]``
    Generate one frame per named preset (``--frame``/``--scale``) and
    check it against the Table 1 characterization envelope.  Exit-code
    contract matches ``gspc-ingest``: 0 every checked preset conforms,
    2 usage error, 3 at least one envelope violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE
from repro.errors import ReproError
from repro.trace.sources.envelope import characterize_capture, check_envelope
from repro.workloads.families import (
    FAMILY_WORKLOADS,
    all_families,
    family_by_name,
    family_workloads,
)


def _knobs(workload) -> str:
    if workload.family == "coherent":
        return (
            f"base={workload.base_app!r} similarity={workload.similarity:g} "
            f"delta={workload.delta_fraction:g} jitter={workload.order_jitter}"
        )
    if workload.family == "graph":
        return (
            f"mode={workload.mode} nodes={workload.nodes} "
            f"degree={workload.avg_degree} alpha={workload.zipf_alpha:g}"
        )
    return f"mode={workload.mode} array_mb={workload.array_mb:g}"


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for family in all_families():
        for workload in family_workloads(family):
            rows.append(
                {
                    "family": family,
                    "name": workload.name,
                    "abbrev": workload.abbrev,
                    "num_frames": workload.num_frames,
                    "knobs": _knobs(workload),
                }
            )
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        print(
            f"{row['family']:<9} {row['name']:<{width}} "
            f"({row['abbrev']}, {row['num_frames']} frames)  {row['knobs']}"
        )
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    violating = 0
    for name in args.names:
        workload = family_by_name(name)
        trace = workload.generate(args.frame, args.scale)
        characterization = characterize_capture(trace)
        violations = check_envelope(characterization)
        verdict = "CONFORMS" if not violations else "VIOLATES"
        print(
            f"{workload.name}: {verdict} "
            f"({characterization['accesses']} accesses)"
        )
        for violation in violations:
            print(f"  - {violation}")
        if violations:
            violating += 1
    return EXIT_OK if violating == 0 else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspc-workloads",
        description="List and envelope-check the extended workload families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser("list", help="print the preset table")
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(func=_cmd_list)
    check_parser = sub.add_parser(
        "check", help="check presets against the Table 1 envelope"
    )
    check_parser.add_argument(
        "names",
        nargs="+",
        metavar="NAME",
        help=f"preset name or abbrev (known: {', '.join(sorted(set(w.abbrev for w in FAMILY_WORKLOADS.values())))})",
    )
    check_parser.add_argument("--frame", type=int, default=0)
    check_parser.add_argument("--scale", type=float, default=0.0625)
    check_parser.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
