"""gspc-sweep — fault-tolerant, resumable sweep orchestration.

Expand a declarative (policy × cache geometry × workload × engine)
sweep into a job DAG and drive it to completion with per-job timeouts,
bounded retry with exponential backoff, and a crash-safe result
journal.  Kill the run at any instant and ``--resume`` picks up where
the journal left off, re-executing only jobs without a recorded result;
the final CSV and manifest metrics are byte-identical to an
uninterrupted run.

Examples::

    gspc-sweep --out results/small --policies drrip gspc+ucd --llc-mb 4 8
    gspc-sweep --out results/small --spec sweep.json --jobs 4 --timeout 600
    gspc-sweep --resume results/small
    gspc-sweep --out /tmp/s --policies lru --apps DMC \\
        --inject-fault job=1,kind=crash --max-attempts 2

Exit codes (docs/observability.md): 0 every job completed, 2 usage
error, 3 some jobs failed permanently (partial results written).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, ensure_directory
from repro.config import DEFAULT_SCALE
from repro.errors import ReproError, SweepError
from repro.faults import FAULT_ENV, FaultSpec
from repro.fastsim.dispatch import ENGINE_AUTO, ENGINES
from repro.obs import log as obs_log
from repro.obs import tracing
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext
from repro.obs.traceexport import build_chrome_trace, write_trace_file
from repro.sweep.exec import ProcessLauncher, RetryPolicy, SweepRunner, resolve_jobs
from repro.sweep.journal import Journal, journal_path, replay
from repro.sweep.report import write_reports
from repro.sweep.spec import (
    SweepSpec,
    expand,
    load_spec,
    save_spec,
    spec_from_args,
    spec_path,
    specs_equal,
)

#: Handoff scratch directory inside a sweep directory.
TMP_DIRNAME = "tmp"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspc-sweep",
        description="Run a fault-tolerant, resumable policy/geometry sweep.",
    )
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument(
        "--out", metavar="DIR", help="directory for a fresh sweep"
    )
    where.add_argument(
        "--resume",
        metavar="DIR",
        help="resume an interrupted sweep from its journal",
    )
    parser.add_argument(
        "--spec", metavar="FILE", help="sweep spec JSON (instead of flags)"
    )
    parser.add_argument(
        "--name", default="sweep", help="sweep name (default: sweep)"
    )
    parser.add_argument(
        "--policies", nargs="+", default=[], help="policy names to sweep"
    )
    parser.add_argument(
        "--llc-mb",
        nargs="+",
        type=int,
        default=[8],
        metavar="MB",
        help="LLC sizes in MB (default: 8)",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=[],
        metavar="APP",
        help="application abbreviations (default: all twelve)",
    )
    parser.add_argument(
        "--frames-per-app", type=int, default=1, help="frames per application"
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="linear frame scale"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=ENGINE_AUTO,
        help="replay engine for the sim jobs",
    )
    parser.add_argument(
        "--source",
        default="synthetic",
        metavar="SPEC",
        help="trace source axis: 'synthetic' (default), 'capture:PATH' "
        "or 'replay:DIR' (gspc-ingest output); see docs/traces.md",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="concurrent worker processes (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job attempt timeout (default: none)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per job per invocation (default 3)",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="first retry delay (default 0.5; doubles per retry)",
    )
    parser.add_argument(
        "--backoff-max",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="retry delay ceiling (default 30)",
    )
    parser.add_argument(
        "--inject-fault",
        metavar="SPEC",
        help="deterministic fault injection, e.g. job=3,kind=crash "
        f"(testing; also honoured from ${FAULT_ENV})",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="DIR",
        help="shared trace cache (default: .repro_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the trace cache"
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write one merged Chrome/Perfetto trace JSON for the run "
        "(orchestrator + every worker attempt as separate tracks)",
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


def _resolve_spec(
    args: argparse.Namespace, sweep_dir: str, resuming: bool
) -> SweepSpec:
    """The sweep's spec, from flags, a spec file, or the sweep directory.

    On resume the persisted spec is authoritative; a conflicting --spec
    or inline grid is a usage error (the journal's job ids would no
    longer match the plan).
    """
    requested: Optional[SweepSpec] = None
    if args.spec:
        requested = load_spec(args.spec)
    elif args.policies:
        requested = spec_from_args(
            args.name,
            args.policies,
            args.llc_mb,
            args.apps,
            args.frames_per_app,
            args.scale,
            args.engine,
            args.source,
        )
    persisted_path = spec_path(sweep_dir)
    if resuming:
        if not os.path.exists(persisted_path):
            raise SweepError(
                f"{sweep_dir} has no {os.path.basename(persisted_path)}; "
                "not a sweep directory (start one with --out)"
            )
        persisted = load_spec(persisted_path)
        if requested is not None and not specs_equal(requested, persisted):
            raise SweepError(
                "--resume with a different spec than the sweep was started "
                "with; drop the spec flags or start a fresh --out directory"
            )
        return persisted
    if requested is None:
        raise SweepError(
            "a fresh sweep needs --spec FILE or at least --policies"
        )
    return requested


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obs_log.configure("DEBUG" if args.verbose else args.log_level)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logger = obs_log.get_logger("sweep")

    resuming = args.resume is not None
    sweep_dir = args.resume if resuming else args.out
    try:
        workers = resolve_jobs(args.jobs)
        retry = RetryPolicy(
            max_attempts=args.max_attempts,
            backoff_base=args.backoff_base,
            backoff_max=args.backoff_max,
        )
        if args.timeout is not None and args.timeout <= 0:
            raise SweepError(
                f"--timeout must be > 0, got {args.timeout}"
            )
        fault = (
            FaultSpec.parse(args.inject_fault)
            if args.inject_fault
            else FaultSpec.from_env()
        )
        spec = _resolve_spec(args, sweep_dir, resuming)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # One trace context per invocation, even without --trace-out: it
    # stamps every log line with the run id for free.
    ctx = tracing.activate(TraceContext.new_run("gspc-sweep"))
    tracing_on = args.trace_out is not None
    recorder = SpanRecorder()
    if tracing_on:
        recorder.enable_events(context=ctx)
    logger.info("run %s starting", ctx.run_id)

    problem = ensure_directory(sweep_dir, "--resume" if resuming else "--out")
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    if not resuming and os.path.exists(journal_path(sweep_dir)):
        print(
            f"error: {sweep_dir} already holds a sweep journal; "
            "use --resume to continue it or pick a fresh --out directory",
            file=sys.stderr,
        )
        return EXIT_USAGE

    with recorder.span("sweep"):
        with recorder.span("plan"):
            jobs = expand(spec)
            save_spec(spec, spec_path(sweep_dir))
            state = replay(journal_path(sweep_dir))
        cache_dir = None if args.no_cache else args.cache_dir
        if fault is not None:
            print(f"fault injection armed: {fault.describe()}")
            logger.warning("fault injection armed: %s", fault.describe())

        print(
            f"sweep {spec.name!r}: {len(jobs)} jobs "
            f"({sum(1 for j in jobs if j.kind == 'sim')} sims over "
            f"{len(spec.policies)} policies x {len(spec.llc_mb)} "
            f"geometries), {workers} worker(s)"
        )
        if tracing_on:
            print(f"tracing run {ctx.run_id} -> {args.trace_out}")
        if resuming:
            print(
                f"resume: {len(state.completed)} of {len(jobs)} jobs "
                f"already journalled"
                + (
                    f", {state.rejected_lines} corrupt journal line(s) "
                    "rejected"
                    if state.rejected_lines
                    else ""
                )
            )

        launcher = ProcessLauncher(
            spec,
            cache_dir,
            os.path.join(sweep_dir, TMP_DIRNAME),
            fault,
            trace_ctx=ctx if tracing_on else None,
        )
        with recorder.span("run"):
            with Journal(journal_path(sweep_dir)) as journal:
                runner = SweepRunner(
                    jobs,
                    launcher,
                    journal,
                    workers=workers,
                    timeout=args.timeout,
                    retry=retry,
                    progress=print,
                    spans=recorder,
                )
                outcome = runner.run(state)

        with recorder.span("reports"):
            paths = write_reports(
                sweep_dir,
                spec,
                jobs,
                outcome,
                workers=workers,
                timeout=args.timeout,
                retry=retry,
                rejected_journal_lines=state.rejected_lines,
            )
    for label, path in sorted(paths.items()):
        print(f"wrote {label}: {path}")
    if tracing_on:
        events = recorder.events_payload()
        trace = build_chrome_trace(
            events,
            ctx.run_id,
            process_names={os.getpid(): "gspc-sweep orchestrator"},
            extra_metadata={
                "sweep": spec.name,
                "dropped_events": recorder.dropped_events,
            },
        )
        write_trace_file(trace, args.trace_out)
        print(
            f"wrote trace: {args.trace_out} "
            f"({len(events)} events, {len(trace['metadata']['pids'])} "
            f"process(es))"
        )
    if args.metrics_text:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.traceexport import write_metrics_text

        registry = MetricsRegistry()
        registry.counter("sweep.jobs.total").inc(len(jobs))
        registry.counter("sweep.jobs.completed").inc(len(outcome.completed))
        registry.counter("sweep.jobs.failed").inc(len(outcome.failures))
        registry.counter("sweep.jobs.resumed").inc(len(outcome.resumed))
        registry.gauge("sweep.wall_seconds").set(outcome.wall_seconds)
        duration = registry.histogram("sweep.attempt_seconds")
        for record in replay(journal_path(sweep_dir)).completed.values():
            duration.observe(float(record.get("seconds", 0.0)))
        write_metrics_text(
            registry.snapshot(), args.metrics_text, {"run_id": ctx.run_id}
        )
        print(f"wrote metrics: {args.metrics_text}")

    if outcome.failures:
        print(
            f"sweep finished with {len(outcome.failures)} permanently "
            f"failed job(s) of {len(jobs)} in {outcome.wall_seconds:.1f}s; "
            f"see {paths['failures']}",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    print(
        f"sweep complete: {len(outcome.completed)}/{len(jobs)} jobs ok "
        f"in {outcome.wall_seconds:.1f}s"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
