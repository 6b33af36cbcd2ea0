"""Command-line experiment runner.

Examples::

    gspc-experiments --list
    gspc-experiments fig12
    gspc-experiments fig12 --jobs 4
    gspc-experiments fig01 fig05 --frames-per-app 2 --scale 0.125
    gspc-experiments --all --full --csv out/ --jobs 0
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import Callable, List, Optional, Sequence

from repro.config import DEFAULT_SCALE
from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentConfig,
    all_experiments,
    get_experiment,
)
from repro.fastsim.dispatch import ENGINE_AUTO, ENGINES
from repro.obs import log as obs_log
from repro.obs.manifest import experiment_manifest, write_manifest
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext
from repro.parallel import (
    JobOutcome,
    SimJob,
    plan_for_experiment,
    resolve_jobs,
    seed_outcomes,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspc-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (fig01, fig04, ..., table1, table6)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"linear frame scale (default {DEFAULT_SCALE}; 1.0 = paper)",
    )
    parser.add_argument(
        "--frames-per-app",
        type=int,
        default=1,
        help="frames per application (default 1)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use all 52 frames (overrides --frames-per-app)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the trace cache"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (0 = one per CPU; default: serial)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=ENGINE_AUTO,
        help="replay engine for offline simulations (auto picks the fast "
        "kernels whenever the policy is covered; results are identical)",
    )
    parser.add_argument(
        "--trace-source",
        default="synthetic",
        metavar="SPEC",
        help="where frame traces come from: 'synthetic' (default), "
        "'capture:PATH' or 'replay:DIR' (see docs/traces.md)",
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="also write each table as CSV into DIR"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        help="write one JSON run manifest per experiment into DIR",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write one merged Chrome/Perfetto trace JSON covering every "
        "experiment in this invocation",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every N-th span event (default 1 = all)",
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


def _job_progress(message: str) -> None:
    """The sweep runner's ``[k/N]`` per-job line (counted at completion)."""
    print(f"  {message}")


def run_plan(
    plan: Sequence[SimJob],
    config: ExperimentConfig,
    workers: int,
    progress: Optional[Callable[[str], None]] = None,
    trace_ctx: Optional[TraceContext] = None,
    trace_sample: int = 1,
) -> List[JobOutcome]:
    """Run an experiment plan on the sweep engine and seed the caches.

    Every attempt runs in a process of its own under
    :class:`~repro.sweep.SweepRunner` (default retries, no timeout,
    ``$REPRO_FAULT_SPEC`` honoured), and each sim/char job waits for its
    frame's trace job.  The journal and the result handoff files live
    in a temporary directory.  Returns the completed jobs' outcomes in
    plan order, already seeded into the in-process caches; a job that
    failed permanently is left to the serial table build, which
    recomputes it in-process.
    """
    from repro.faults import FaultSpec
    from repro.sweep.exec import ProcessLauncher, SweepRunner
    from repro.sweep.journal import Journal, journal_path
    from repro.sweep.spec import SweepJob
    from repro.sweep.worker import result_value

    jobs = [
        SweepJob(
            job.kind, job.app, job.frame_index, job.policy,
            config.llc_mb if job.policy else 0,
            deps=(
                (SweepJob("trace", job.app, job.frame_index).job_id,)
                if job.policy else ()
            ),
        )
        for job in plan
    ]
    finished = {}

    def keep(sweep_job, result) -> None:
        job = sweep_job.sim_job()
        finished[job] = JobOutcome(
            job, result_value(result.pickled), result.seconds,
            result.spans or {}, result.events,
        )

    with tempfile.TemporaryDirectory(prefix="gspc-experiments-") as tmp:
        launcher = ProcessLauncher(
            config, config.cache_dir, tmp, FaultSpec.from_env(),
            trace_ctx=trace_ctx, trace_sample=trace_sample,
        )
        with Journal(journal_path(tmp)) as journal:
            SweepRunner(
                jobs, launcher, journal, workers=workers, progress=progress,
                on_result=keep,
            ).run()
    outcomes = [finished[job] for job in plan if job in finished]
    seed_outcomes(outcomes, config)
    return outcomes


def parallel_section(
    workers: int, wall_seconds: float, outcomes: Sequence[JobOutcome]
) -> dict:
    """The run manifest's ``parallel`` section for one :func:`run_plan`."""
    serial = sum(outcome.seconds for outcome in outcomes)
    return {
        "workers": workers,
        "jobs": len(outcomes),
        "wall_seconds": wall_seconds,
        # Sum of per-job wall times ≈ what a serial run would cost.
        "serial_seconds_estimate": serial,
        "speedup": serial / wall_seconds if wall_seconds > 0 else 1.0,
        "per_job": [
            {
                "job": outcome.job.label,
                "seconds": outcome.seconds,
                "spans": outcome.spans,
            }
            for outcome in outcomes
        ],
    }


def run_experiments(
    ids: List[str],
    config: ExperimentConfig,
    csv_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    workers: int = 1,
    trace_out: Optional[str] = None,
    trace_sample: int = 1,
) -> int:
    logger = obs_log.get_logger("experiments")
    from repro.obs import tracing

    ctx = tracing.activate(tracing.TraceContext.new_run("gspc-experiments"))
    collected_events: List[dict] = []
    total = len(ids)
    for position, experiment_id in enumerate(ids, start=1):
        experiment = get_experiment(experiment_id)
        print(f"\n[{position}/{total}] {experiment.id}: {experiment.title}")
        print(f"paper claim: {experiment.paper_claim}")
        logger.info("starting %s (%d/%d)", experiment.id, position, total)
        spans = SpanRecorder()
        if trace_out:
            spans.enable_events(
                sample_period=trace_sample,
                context=ctx.child(experiment.id),
            )
        started = time.perf_counter()
        outcomes: List[JobOutcome] = []
        parallel = None
        # try/finally so an experiment that raises cannot leave the
        # recorder with open spans (and skew the others' aggregates).
        try:
            plan = plan_for_experiment(experiment, config) if workers > 1 else []
            if plan:
                logger.info(
                    "%s: fanning %d jobs over %d workers",
                    experiment.id, len(plan), workers,
                )
                print(f"parallel: {len(plan)} jobs over {workers} workers")
                plan_started = time.perf_counter()
                with spans.span("parallel"):
                    outcomes = run_plan(
                        plan, config, workers, progress=_job_progress,
                        trace_ctx=ctx if trace_out else None,
                        trace_sample=trace_sample,
                    )
                parallel = parallel_section(
                    workers, time.perf_counter() - plan_started, outcomes
                )
                if len(outcomes) < len(plan):
                    print(
                        f"parallel: {len(plan) - len(outcomes)} job(s) "
                        "failed permanently; computing them in-process"
                    )
                logger.info(
                    "%s: parallel jobs done in %.2fs (serial estimate "
                    "%.2fs, speedup %.2fx)",
                    experiment.id,
                    parallel["wall_seconds"],
                    parallel["serial_seconds_estimate"],
                    parallel["speedup"],
                )
            with spans.span("run"):
                tables = experiment.run(config)
        finally:
            spans.abandon_open_spans()
            if trace_out:
                collected_events.extend(spans.events_payload())
                for outcome in outcomes:
                    collected_events.extend(outcome.events)
        elapsed = time.perf_counter() - started
        for table_index, table in enumerate(tables):
            print()
            print(table.render())
            if csv_dir:
                os.makedirs(csv_dir, exist_ok=True)
                path = os.path.join(
                    csv_dir, f"{experiment.id}_{table_index}.csv"
                )
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(table.to_csv())
        if metrics_dir:
            manifest = experiment_manifest(
                experiment.id,
                experiment.title,
                config=config,
                elapsed_seconds=elapsed,
                tables=tables,
                spans=spans,
                parallel=parallel,
            )
            path = write_manifest(manifest, metrics_dir)
            print(f"wrote {path}")
        print(f"[{position}/{total}] {experiment.id} completed in {elapsed:.1f}s")
    if trace_out:
        from repro.obs.traceexport import build_chrome_trace, write_trace_file

        chrome = build_chrome_trace(
            collected_events,
            ctx.run_id,
            process_names={os.getpid(): "gspc-experiments"},
            extra_metadata={"experiments": list(ids)},
        )
        write_trace_file(chrome, trace_out)
        print(f"wrote trace: {trace_out} ({len(collected_events)} events)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obs_log.configure("DEBUG" if args.verbose else args.log_level)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = all_experiments()
    if args.list or (not args.experiments and not args.all):
        print("Available experiments:")
        for experiment in sorted(registry.values(), key=lambda e: e.id):
            print(f"  {experiment.id:8s} {experiment.title}")
        return 0
    ids = sorted(registry) if args.all else args.experiments
    unknown = [id for id in ids if id.strip().lower() not in registry]
    if unknown:
        print(
            "error: unknown experiment id(s): " + ", ".join(sorted(unknown)),
            file=sys.stderr,
        )
        print(
            "valid ids: " + ", ".join(sorted(registry)), file=sys.stderr
        )
        return 2
    try:
        workers = resolve_jobs(args.jobs)
        if workers > 1:
            from repro.faults import FaultSpec

            FaultSpec.from_env()  # a malformed $REPRO_FAULT_SPEC fails here
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Fail before running experiments — not minutes into a simulation —
    # if an output directory cannot be created.
    from repro.cli import EXIT_USAGE, ensure_directory

    for option, directory in (("--csv", args.csv),
                              ("--metrics-out", args.metrics_out)):
        if not directory:
            continue
        problem = ensure_directory(directory, option)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return EXIT_USAGE
    if args.trace_sample < 1:
        print(
            f"error: --trace-sample must be >= 1, got {args.trace_sample}",
            file=sys.stderr,
        )
        return 2
    from repro.trace.sources import validate_source_spec

    try:
        validate_source_spec(args.trace_source)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = ExperimentConfig(
        scale=args.scale,
        frames_per_app=None if args.full else args.frames_per_app,
        cache_dir=None if args.no_cache else ".repro_cache",
        engine=args.engine,
        source=args.trace_source,
    )
    return run_experiments(
        ids,
        config,
        args.csv,
        args.metrics_out,
        workers=workers,
        trace_out=args.trace_out,
        trace_sample=args.trace_sample,
    )


if __name__ == "__main__":
    sys.exit(main())
