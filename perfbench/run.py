"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload paper-figs --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  A run repeats *slots* until its timed
passes add up to ``--seconds`` (at least three): each slot sets up in a
fresh interpreter (imports plus filling an empty trace cache with the
seed's frames; that wall time is one ``setup_s`` sample), then runs one
timed pass of the workload in this process on that cache.  Every
``end_to_end`` metric is reported as the median over slots, except
``peak_rss_mb``, the largest resident set of any process of the run.

``--trace 1`` runs three slots instead, the middle one traced, and
reports the per-layer metrics of the traced pass (see layers.py); its
spans are written to ``.perfbench_spans/`` when the run ends.

The last line of standard output is the result as JSON; the lines
before it are for people.  Exit code 2 when the program's source is not
there; a failed set-up aborts the run with its error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from checks import load_pinned, score, write_pinned
from workloads import WORKLOADS, frames_for_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches and outputs, inside the checkout; removed
#: at the start and end of every run.
WORK = os.path.join(ROOT, ".perfbench_work")
#: Where a traced run leaves its spans, one file per workload and seed.
SPANS = os.path.join(ROOT, ".perfbench_spans")
MIN_SLOTS = 3
#: Start no slot that could end past this many seconds into the run.
DEADLINE_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="picks each app's frame (0: frame 0 everywhere)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed pass seconds to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced pass")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's output digests as the pinned "
                        "ones (seed 0 only)")
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def set_up(args, cache_dir: str) -> float:
    """One fresh-interpreter set-up; returns its wall seconds."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-into", cache_dir],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def measure(args, workload, frames):
    """Run slots; returns (slots, pass outputs, traced-pass data or None)."""
    import layers
    from tracer import Patches, Tracer

    workload.import_modules()
    checks_installed = Patches()
    layers.install_checks(checks_installed)
    slots = []  # (setup_s, wall_s, cpu_s)
    outputs = []
    traced = None
    started = time.perf_counter()
    while not done(args, slots, time.perf_counter() - started):
        slot = len(slots)
        cache_dir = os.path.join(WORK, f"cache{slot}")
        out_dir = os.path.join(WORK, f"out{slot}")
        os.makedirs(out_dir)
        setup_s = set_up(args, cache_dir)
        tracer = Tracer() if args.trace and slot == 1 else None
        wrappers = Patches()
        if tracer is not None:
            spans_dir = os.path.join(WORK, "spans")
            os.makedirs(spans_dir)
            layers.install(tracer, wrappers, spans_dir)
            root = tracer.open("bench.pass")
        cpu_before = cpu_seconds()
        pass_started = time.perf_counter()
        outputs.append(workload.run_pass(cache_dir, out_dir, frames, tracer))
        wall_s = time.perf_counter() - pass_started
        slots.append((setup_s, wall_s, cpu_seconds() - cpu_before))
        if tracer is not None:
            tracer.close(root)
            wrappers.undo()
            tracer.load_dumps(spans_dir)
            traced = (tracer, root["end"] - root["start"])
    checks_installed.undo()
    if traced is not None:
        # Untraced slots on both sides of the traced one, so a drift
        # over the run does not read as tracing overhead.
        traced += (statistics.mean([slots[0][1], slots[2][1]]),)
    return slots, outputs, traced


def done(args, slots, elapsed: float) -> bool:
    if args.trace:
        return len(slots) == 3
    if len(slots) >= MIN_SLOTS and sum(slot[1] for slot in slots) >= args.seconds:
        return True
    # Another slot like the last one would end past the deadline.
    return bool(slots) and elapsed + slots[-1][0] + slots[-1][1] > DEADLINE_S


def report_layers(tracer, traced_wall: float, untraced_wall: float) -> dict:
    import layers

    values = layers.metrics(tracer, traced_wall, untraced_wall)
    print(f"{'layer':<14}{'share_s':>10}{'% wall':>9}")
    shares = layers.layer_shares(tracer)
    for layer, seconds in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"{layer:<14}{seconds:>10.3f}{100 * seconds / traced_wall:>8.1f}%")
    print(f"{'unattributed':<14}{values['unattributed_s']:>10.3f}"
          f"{100 * values['unattributed_s'] / traced_wall:>8.1f}%")
    print(f"{'traced wall':<14}{traced_wall:>10.3f}  (untraced {untraced_wall:.3f}, "
          f"overhead {100 * values['trace_overhead_frac']:.1f}%)")
    units = {name: unit for name, unit, _ in layers.METRICS}
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    frames = frames_for_seed(args.seed)
    if args.setup_into:
        workload.import_modules()
        workload.setup(args.setup_into, frames)
        return 0
    if args.write_pins and args.seed != 0:
        print("error: --write-pins needs --seed 0", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        slots, outputs, traced = measure(args, workload, frames)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    pinned = load_pinned(args.workload) if args.seed == 0 and not args.write_pins else None
    attempted, failed, problems = score(outputs, pinned)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.write_pins and not failed:
        write_pinned(args.workload, outputs[0])

    setup_s, wall_s, cpu_s = (statistics.median(column) for column in zip(*slots))
    end_to_end = {
        "wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {args.workload}, seed {args.seed}: frames "
          + " ".join(f"{app}:{index}" for app, index in frames))
    print("slots (setup_s, wall_s, cpu_s): "
          + "; ".join(", ".join(f"{v:.3f}" for v in slot) for slot in slots))
    for name, unit in END_TO_END:
        print(f"{name} = {end_to_end[name]:.4f} {unit}")
    print(f"error_rate = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} operations failed)")
    if traced is not None:
        metrics = report_layers(*traced)
        spans_path = os.path.join(SPANS, f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(SPANS, exist_ok=True)
        if os.path.exists(spans_path):
            os.unlink(spans_path)
        traced[0].dump(spans_path)
        print(f"spans: {spans_path}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
