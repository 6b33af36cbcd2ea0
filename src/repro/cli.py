"""gspc-sim — one-shot simulation CLI.

Simulate a trace (a saved ``.npz`` LLC trace, or a synthesized frame of
one of the twelve applications) under one or more policies and print
miss counts, per-stream hit rates, and optionally modeled FPS.

Examples::

    gspc-sim --app AssnCreed --policies drrip gspc+ucd belady
    gspc-sim --trace frame.npz --policies drrip gspc+ucd --llc-mb 16
    gspc-sim --app HAWX --frame 2 --scale 0.0625 --timing
    gspc-sim --app DMC --save-trace dmc0.npz
    gspc-sim --app AssnCreed --policies drrip gspc+ucd --metrics-out out/

Policies replay one after another in this process; ``gspc-sweep`` is
the parallel multi-policy path.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time
from typing import List, Optional

from repro.analysis.tables import Table
from repro.config import DEFAULT_SCALE, paper_baseline
from repro.core.registry import available_policies
from repro.errors import ReproError
from repro.gpu.timing import FrameTimingSimulator
from repro.obs import log as obs_log
from repro.fastsim.dispatch import ENGINE_AUTO, ENGINES, choose_engine
from repro.obs.manifest import sim_manifest, timing_manifest, write_manifest
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext
from repro.sim.offline import RecordKeeper, simulate_trace
from repro.trace.io import load_trace, save_trace, trace_format
from repro.trace.record import Trace
from repro.trace.sources import SOURCE_SYNTHETIC, resolve_source, \
    validate_source_spec

#: Process exit-code convention shared by every gspc-* entry point
#: (see docs/observability.md): success, runtime failure, usage error,
#: partial failure (some jobs failed but the run completed gracefully).
EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def ensure_directory(directory: str, option: str) -> Optional[str]:
    """Create an output directory up front; error message on failure.

    Entry points call this before any simulation work so a bad ``--csv``
    / ``--metrics-out`` / ``--out`` path fails in milliseconds, not
    minutes in.  Returns ``None`` on success; the caller picks the exit
    code (conventions differ per entry point and are frozen).
    """
    try:
        os.makedirs(directory, exist_ok=True)
        return None
    except OSError as exc:
        return f"cannot create {option} directory {directory!r}: {exc}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspc-sim", description="Simulate LLC policies on one trace."
    )
    source = parser.add_mutually_exclusive_group(required=False)
    source.add_argument(
        "--trace", help="path to a saved .gsct/.npz LLC trace"
    )
    source.add_argument(
        "--app",
        help="simulate a frame of this workload (a Table 1 name for the "
        "synthetic source, a captured workload name otherwise)",
    )
    parser.add_argument(
        "--trace-source",
        default=SOURCE_SYNTHETIC,
        metavar="SPEC",
        help="where frames come from: 'synthetic' (default), "
        "'capture:PATH' (ingest a capture on the fly) or 'replay:DIR' "
        "(gspc-ingest output); see docs/traces.md",
    )
    parser.add_argument("--frame", type=int, default=0, help="frame index")
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="linear frame scale"
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        default=["drrip", "gspc+ucd"],
        help="policy names (first one is the normalization baseline)",
    )
    parser.add_argument("--llc-mb", type=int, default=8, help="LLC size in MB")
    parser.add_argument(
        "--timing", action="store_true", help="also run the frame-timing model"
    )
    parser.add_argument(
        "--save-trace", metavar="PATH", help="save the input trace and exit"
    )
    parser.add_argument(
        "--list-policies", action="store_true", help="list known policies"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=ENGINE_AUTO,
        help="replay engine: the specialized fast kernels, the reference "
        "hook-driven simulator, or auto (fast whenever the policy is "
        "covered; identical results either way)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        help="write one JSON run manifest per policy into DIR",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write one merged Chrome/Perfetto trace JSON for the run "
        "(each policy simulation as its own track)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every N-th span event (default 1 = all)",
    )
    parser.add_argument(
        "--metrics-text",
        metavar="FILE",
        help="also dump run metrics in Prometheus text format to FILE",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="logging level (default: $REPRO_LOG_LEVEL or WARNING)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="debug logging (shorthand for --log-level DEBUG)",
    )
    return parser


def _resolve_trace(args: argparse.Namespace) -> Trace:
    if args.trace:
        return load_trace(args.trace)
    source = resolve_source(args.trace_source)
    if args.app:
        workload = args.app
    elif args.trace_source == SOURCE_SYNTHETIC:
        workload = "BioShock"
    else:
        workload = source.workloads()[0].name
    return source.frame_trace(workload, args.frame, args.scale)


def _simulate(
    trace: Trace, policy: str, llc, args: argparse.Namespace,
    ctx: TraceContext,
):
    """Replay one policy with the telemetry the flags ask for.

    Returns ``(SimResult, observer, spans, engine_used, record)``, where
    ``engine_used`` is the resolved ``"reference"``/``"fast"`` and
    ``record`` is the replay record that ``--timing`` integrates
    (``None`` without ``--timing``).
    """
    from repro.obs.events import SamplingObserver

    observer = SamplingObserver() if args.metrics_out else None
    # --timing integrates this replay's record rather than replaying.
    keeper = RecordKeeper(observer) if args.timing else None
    spans = SpanRecorder() if args.metrics_out or args.trace_out else None
    engine_used = choose_engine(args.engine, policy)
    root = contextlib.nullcontext()
    if args.trace_out:
        spans.enable_events(
            context=ctx.child(f"sim:{policy}"),
            sample_period=args.trace_sample,
        )
        # Root span = the policy's whole replay, one top-level event.
        root = spans.span("sim")
    with root:
        result = simulate_trace(
            trace, policy, llc, observer=keeper or observer, spans=spans,
            engine=args.engine,
        )
    record = keeper.record if keeper else None
    return result, observer, spans, engine_used, record


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obs_log.configure("DEBUG" if args.verbose else args.log_level)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logger = obs_log.get_logger("cli")
    try:
        if args.trace_sample < 1:
            raise ReproError(
                f"--trace-sample must be >= 1, got {args.trace_sample}"
            )
        validate_source_spec(args.trace_source)
        # Unknown trace extensions are caller mistakes; fail as usage
        # errors before any simulation work.
        if args.trace:
            trace_format(args.trace)
        if args.save_trace:
            trace_format(args.save_trace)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.obs import tracing

    ctx = tracing.activate(tracing.TraceContext.new_run("gspc-sim"))
    if args.list_policies:
        for name in available_policies():
            print(f"{name}  (also {name}+ucd)")
        return 0
    try:
        trace = _resolve_trace(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logger.info(
        "trace %s ready: %d accesses", trace.meta.get("name", "?"), len(trace)
    )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"saved {len(trace):,} accesses to {args.save_trace}")
        return 0
    if args.metrics_out:
        # Fail before simulating, not after, if the directory is unusable.
        problem = ensure_directory(args.metrics_out, "--metrics-out")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return EXIT_RUNTIME

    system = paper_baseline(llc_mb=args.llc_mb, scale=args.scale)
    print(
        f"trace {trace.meta.get('name', '?')}: {len(trace):,} accesses; "
        f"LLC {system.llc.params.capacity_bytes // 1024} KB "
        f"{system.llc.ways}-way"
    )
    table = Table(
        "Offline simulation",
        ["Policy", "Misses", "vs baseline", "Hit rate", "TEX hit", "RT->TEX"],
    )
    baseline = None
    wall_started = time.perf_counter()
    try:
        runs = [
            _simulate(trace, policy, system.llc, args, ctx)
            for policy in args.policies
        ]
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_seconds = time.perf_counter() - wall_started
    for result, *_ in runs:
        logger.info(
            "%s: %d misses, %.0f accesses/s replay",
            result.policy,
            result.misses,
            result.replay_accesses_per_second,
        )
        if baseline is None:
            baseline = result
        stats = result.stats
        table.add_row(
            result.policy.upper(),
            result.misses,
            result.misses_normalized_to(baseline),
            stats.hit_rate,
            stats.tex_hit_rate,
            stats.rt_consumption_rate,
        )
    print()
    print(table.render())
    manifest_config = {
        "llc": dataclasses.asdict(system.llc),
        "llc_mb": args.llc_mb,
        "scale": args.scale,
    }
    timings = {}
    if args.timing:
        simulator = FrameTimingSimulator(system)
        timing_table = Table(
            "Frame timing", ["Policy", "Frame ms", "FPS (full scale)", "Speedup"]
        )
        base_timing = None
        for policy, (*_, record) in zip(args.policies, runs):
            timing = simulator.run(trace, policy, record=record)
            if base_timing is None:
                base_timing = timing
            timings[timing.policy] = timing
            timing_table.add_row(
                timing.policy.upper(),
                timing.frame_ns / 1e6,
                timing.fps_full_scale,
                timing.speedup_over(base_timing),
            )
        print()
        print(timing_table.render())
    if args.metrics_out:
        for result, observer, spans, engine_used, _ in runs:
            manifest = sim_manifest(
                result,
                config=manifest_config,
                observer=observer,
                spans=spans,
                engine=engine_used,
            )
            path = write_manifest(manifest, args.metrics_out)
            print(f"wrote {path}")
        for policy, timing in timings.items():
            manifest = timing_manifest(
                timing, config=manifest_config, trace_meta=trace.meta
            )
            path = write_manifest(manifest, args.metrics_out)
            print(f"wrote {path}")
    if args.trace_out:
        from repro.obs.traceexport import build_chrome_trace, write_trace_file

        events = [
            event for _, _, spans, *_ in runs for event in spans.events_payload()
        ]
        chrome = build_chrome_trace(
            events,
            ctx.run_id,
            process_names={os.getpid(): "gspc-sim"},
            extra_metadata={"trace_name": trace.meta.get("name", "?")},
        )
        write_trace_file(chrome, args.trace_out)
        print(f"wrote trace: {args.trace_out} ({len(events)} events)")
    if args.metrics_text:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.traceexport import write_metrics_text

        registry = MetricsRegistry()
        registry.counter("sim.policies").inc(len(runs))
        registry.counter("sim.trace.accesses").inc(len(trace))
        registry.gauge("sim.wall_seconds").set(wall_seconds)
        replay_rate = registry.histogram("sim.replay_seconds")
        for result, *_ in runs:
            registry.counter(f"sim.misses.{result.policy}").inc(result.misses)
            replay_rate.observe(result.replay_seconds)
        write_metrics_text(
            registry.snapshot(), args.metrics_text, {"run_id": ctx.run_id}
        )
        print(f"wrote metrics: {args.metrics_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
