"""Compare the result-bearing sections of two manifest directories.

The CI engine-equivalence job runs the same simulations once per replay
engine with ``--metrics-out`` and then checks that every manifest pair
agrees on what was simulated and what came out::

    PYTHONPATH=src python benchmarks/diff_manifest_metrics.py out_ref out_fast

Only the deterministic sections are compared — ``policy``, ``trace``,
``metrics``, ``extras``, ``config`` and ``events`` (the sampled event
summary, read off each engine's identical replay record) — because the
rest legitimately differs between engines: timestamps, phase timings
and the ``engine`` field itself.  ``engine`` fields are ignored at
*any* nesting depth: sweep manifests record the engine per job inside
``metrics`` and again in ``config``.  Directories must contain the same
manifest filenames.
"""

import argparse
import json
import os
import sys

COMPARED_KEYS = ("policy", "trace", "metrics", "extras", "config", "events")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def strip_engine(value):
    """``value`` with every nested ``engine`` mapping key removed."""
    if isinstance(value, dict):
        return {
            key: strip_engine(item)
            for key, item in value.items()
            if key != "engine"
        }
    if isinstance(value, list):
        return [strip_engine(item) for item in value]
    return value


def diff_pair(left: dict, right: dict, name: str) -> list:
    problems = []
    for key in COMPARED_KEYS:
        left_value = strip_engine(left.get(key))
        right_value = strip_engine(right.get(key))
        if left_value != right_value:
            problems.append(
                f"{name}: section {key!r} differs\n"
                f"  left:  {json.dumps(left_value, sort_keys=True)}\n"
                f"  right: {json.dumps(right_value, sort_keys=True)}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff the deterministic sections of manifest pairs."
    )
    parser.add_argument("left", help="first manifest directory")
    parser.add_argument("right", help="second manifest directory")
    args = parser.parse_args(argv)

    left_names = sorted(
        name for name in os.listdir(args.left) if name.endswith(".json")
    )
    right_names = sorted(
        name for name in os.listdir(args.right) if name.endswith(".json")
    )
    problems = []
    if left_names != right_names:
        problems.append(
            f"manifest sets differ: {left_names} vs {right_names}"
        )
    if not left_names:
        problems.append(f"no manifests found in {args.left}")
    for name in left_names:
        if name not in right_names:
            continue
        problems.extend(
            diff_pair(
                load(os.path.join(args.left, name)),
                load(os.path.join(args.right, name)),
                name,
            )
        )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"ok: {len(left_names)} manifest pair(s) agree on {COMPARED_KEYS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
