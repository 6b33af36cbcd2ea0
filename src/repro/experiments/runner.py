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
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.config import DEFAULT_SCALE
from repro.errors import ReproError
from repro.experiments.common import (
    _CHAR_CACHE,
    _SIM_CACHE,
    Experiment,
    ExperimentConfig,
    _cache_key,
    all_experiments,
    frame_spec_for,
    frame_trace_path,
    get_experiment,
    seed_frame_characterization,
    seed_frame_result,
)
from repro.fastsim.dispatch import ENGINE_AUTO, ENGINES
from repro.obs import log as obs_log
from repro.obs.manifest import experiment_manifest, write_manifest
from repro.obs.spans import SpanRecorder

if TYPE_CHECKING:  # repro.sweep is imported lazily: serial runs never need it
    from repro.sweep.spec import SweepJob
    from repro.sweep.worker import JobOutcome


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


def plan_for_experiment(
    experiment: Experiment, config: ExperimentConfig
) -> List[SweepJob]:
    """The experiment's declared work as a deduplicated, deterministically
    ordered job list, trace jobs first.

    Each sim/char job carries ``config.llc_mb`` and depends on its
    frame's trace job; one whose result an earlier experiment already
    memoised in-process is left out.  A trace job is planned only for a
    frame whose :func:`frame_trace_path` does not exist yet, so each
    frame is generated once and published through the concurrency-safe
    disk cache (without a cache the trace could not reach the other
    workers).  Edges to trace jobs the plan lacks are ignored; a sim job
    whose frame went missing or stale since planning regenerates it.
    Returns an empty list when the experiment declares no
    parallelizable work (it then runs serially, unchanged).
    """
    from repro.sweep.spec import JOB_KINDS, SweepJob

    frames = config.frames() if experiment.needs_traces else []
    jobs: List[SweepJob] = []
    for spec in frames:
        path = frame_trace_path(spec, config)
        if path is not None and not os.path.exists(path):
            jobs.append(SweepJob("trace", spec.app.abbrev, spec.frame_index))
    for kind, policies, memo in (
        ("sim", experiment.sim_policies, _SIM_CACHE),
        ("char", experiment.char_policies, _CHAR_CACHE),
    ):
        jobs.extend(
            SweepJob(
                kind, spec.app.abbrev, spec.frame_index, policy, config.llc_mb,
                deps=(SweepJob("trace", spec.app.abbrev, spec.frame_index).job_id,),
            )
            for policy in policies
            for spec in frames
            if _cache_key(spec, policy, config) not in memo
        )
    # Dedup preserving kind order; sort within a kind for determinism.
    return sorted(set(jobs), key=lambda job: (JOB_KINDS.index(job.kind), job))


def seed_outcomes(
    outcomes: Sequence[JobOutcome], config: ExperimentConfig
) -> None:
    """Publish worker results into the in-process experiment caches.

    After seeding, a serial :meth:`Experiment.run` resolves every
    declared :func:`frame_result` / :func:`frame_characterization` call
    from cache — so its tables are byte-identical to a fully serial run
    by construction, independent of worker count or completion order.
    """
    seed = {"sim": seed_frame_result, "char": seed_frame_characterization}
    for outcome in outcomes:
        job = outcome.job
        if outcome.value is not None:
            spec = frame_spec_for(job.app, job.frame_index, config)
            seed[job.kind](spec, job.policy, config, outcome.value)


def run_plan(
    plan: Sequence[SweepJob],
    config: ExperimentConfig,
    workers: int,
    progress: Optional[Callable[[str], None]] = None,
    spans: Optional[SpanRecorder] = None,
) -> List[JobOutcome]:
    """Run an experiment plan on the sweep engine and seed the caches.

    Attempts run on at most ``workers`` worker processes under
    :class:`~repro.sweep.SweepRunner` (default retries, no timeout,
    ``$REPRO_FAULT_SPEC`` honoured).  The journal and the result
    handoff files live in a temporary directory.  Returns the completed
    jobs' outcomes in plan order, already seeded into the in-process
    caches; a job that failed permanently is left to the serial table
    build, which recomputes it in-process.

    While ``spans`` records events, the workers run under its trace
    context and the runner adds each attempt's span and the worker's
    events to it, as ``gspc-sweep`` does.
    """
    from repro.faults import FaultSpec
    from repro.sweep.exec import ProcessLauncher, SweepRunner
    from repro.sweep.journal import Journal, journal_path
    from repro.sweep.worker import JobOutcome, result_value

    finished = {}

    def keep(job, result) -> None:
        finished[job] = JobOutcome(
            job, result_value(result.pickled), result.seconds,
            result.spans or {},
        )

    traced = spans is not None and spans.events_enabled
    with tempfile.TemporaryDirectory(prefix="gspc-experiments-") as tmp:
        launcher = ProcessLauncher(
            config, config.cache_dir, tmp, FaultSpec.from_env(),
            trace_ctx=spans.context if traced else None,
        )
        with Journal(journal_path(tmp)) as journal:
            SweepRunner(
                plan, launcher, journal, workers=workers, progress=progress,
                spans=spans, on_result=keep,
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
                "job": outcome.job.job_id,
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
            spans.enable_events(context=ctx.child(experiment.id))
        started = time.perf_counter()
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
                        spans=spans,
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
            collected_events.extend(spans.events_payload())
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
        config = ExperimentConfig(
            scale=args.scale,
            frames_per_app=None if args.full else args.frames_per_app,
            cache_dir=None if args.no_cache else ".repro_cache",
            engine=args.engine,
            source=args.trace_source,
        )
        workers = args.jobs
        if workers != 1:
            from repro.faults import FaultSpec
            from repro.sweep.exec import resolve_jobs

            workers = resolve_jobs(args.jobs)
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
    from repro.trace.sources import validate_source_spec

    try:
        validate_source_spec(args.trace_source)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run_experiments(
        ids,
        config,
        args.csv,
        args.metrics_out,
        workers=workers,
        trace_out=args.trace_out,
    )


if __name__ == "__main__":
    sys.exit(main())
