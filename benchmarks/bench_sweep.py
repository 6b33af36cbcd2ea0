"""Sweep-orchestration overhead benchmark.

Runs the same (trace + sims) job set three times — through a bare
``ProcessPoolExecutor`` map over :func:`repro.parallel.execute_job`
(traces warmed serially first, then the sims fanned out), through the
full :class:`repro.sweep.SweepRunner` stack (per-attempt worker processes,
journalling with per-record fsync, result-file handoff), and through
the same sweep stack with run tracing enabled (trace context shipped
to every worker, span events collected) — and reports orchestration
and tracing overheads as fractions of the respective baselines::

    PYTHONPATH=src python benchmarks/bench_sweep.py --out BENCH_sweep_ci.json

Each side is timed ``--repeats`` times and the minimum is used, so the
reported ``orchestration_overhead`` / ``tracing_overhead`` metrics
reflect machinery cost, not scheduler noise.  The trace cache is warmed
before timing any side, so all measure simulation work.  Both metrics
carry their own 5% ``limit``, so ``check_regression.py`` holds a CI
run's ``BENCH_sweep_ci.json`` to it whatever the committed
``BENCH_sweep.json`` measured, and a refreshed baseline keeps it.
"""

import time
from concurrent.futures import ProcessPoolExecutor

#: Largest tolerated orchestration or tracing overhead, as a fraction.
OVERHEAD_LIMIT = 0.05


def run_bench(
    scale: float = 0.25,
    workers: int = 2,
    repeats: int = 3,
    base_dir: str = ".",
) -> dict:
    import os

    from repro.parallel import execute_job
    from repro.sweep.exec import ProcessLauncher, SweepRunner
    from repro.sweep.journal import Journal
    from repro.sweep.spec import SweepSpec, expand

    cache_dir = os.path.join(base_dir, "cache")
    spec = SweepSpec(
        name="bench",
        policies=("drrip", "nru", "gspc"),
        llc_mb=(8,),
        apps=("DMC",),
        scale=scale,
        engine="auto",
    )
    jobs = expand(spec)
    sim_jobs = [job.sim_job() for job in jobs]
    config = spec.config_for(8, cache_dir)

    traces = [job for job in sim_jobs if job.kind == "trace"]
    sims = [job for job in sim_jobs if job.kind != "trace"]

    def run_traces() -> None:
        for job in traces:
            execute_job(job, config)

    # Warm the trace cache so neither side times trace synthesis.
    run_traces()

    def time_bare() -> float:
        started = time.perf_counter()
        run_traces()
        # The default start method, as for the sweep's per-attempt
        # workers, so the two sides differ only in orchestration.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(execute_job, sims, [config] * len(sims)))
        return time.perf_counter() - started

    def time_sweep(round_index: int, traced: bool = False) -> float:
        from repro.obs.tracing import TraceCollector, TraceContext

        label = "traced" if traced else "sweep"
        sweep_dir = os.path.join(base_dir, f"{label}-{round_index}")
        os.makedirs(sweep_dir, exist_ok=True)
        ctx = TraceContext.new_run("bench") if traced else None
        collector = TraceCollector(ctx) if traced else None
        launcher = ProcessLauncher(
            spec, cache_dir, os.path.join(sweep_dir, "tmp"), trace_ctx=ctx
        )
        started = time.perf_counter()
        with Journal(os.path.join(sweep_dir, "journal.jsonl")) as journal:
            outcome = SweepRunner(
                jobs, launcher, journal, workers=workers, collector=collector
            ).run()
        elapsed = time.perf_counter() - started
        assert outcome.ok, f"bench sweep failed: {outcome.failures}"
        if traced:
            assert len(collector) > 0, "traced bench produced no events"
        return elapsed

    bare_seconds = [time_bare() for _ in range(repeats)]
    sweep_seconds = [time_sweep(i) for i in range(repeats)]
    traced_seconds = [time_sweep(i, traced=True) for i in range(repeats)]
    bare_min = min(bare_seconds)
    sweep_min = min(sweep_seconds)
    traced_min = min(traced_seconds)
    return {
        "scale": scale,
        "workers": workers,
        "repeats": repeats,
        "jobs": {
            "total": len(jobs),
            "sims": sum(1 for job in jobs if job.kind == "sim"),
        },
        "bare_seconds": bare_seconds,
        "sweep_seconds": sweep_seconds,
        "traced_seconds": traced_seconds,
        "bare_min": bare_min,
        "sweep_min": sweep_min,
        "traced_min": traced_min,
        "metrics": {
            "orchestration_overhead": {
                "value": (sweep_min - bare_min) / bare_min,
                "unit": "fraction",
                "better": "lower",
                "limit": OVERHEAD_LIMIT,
            },
            # Tracing cost relative to the untraced sweep stack.
            "tracing_overhead": {
                "value": (traced_min - sweep_min) / sweep_min,
                "unit": "fraction",
                "better": "lower",
                "limit": OVERHEAD_LIMIT,
            },
        },
    }


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        description="Measure SweepRunner overhead over a bare process pool."
    )
    parser.add_argument("--out", default="BENCH_sweep.json", help="report path")
    parser.add_argument(
        "--scale", type=float, default=0.25, help="linear frame scale"
    )
    parser.add_argument("--jobs", type=int, default=2, help="worker count")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing rounds per side"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as base_dir:
        report = run_bench(
            scale=args.scale,
            workers=args.jobs,
            repeats=args.repeats,
            base_dir=base_dir,
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    overheads = ", ".join(
        f"{name} {entry['value']:+.1%}" for name, entry in report["metrics"].items()
    )
    print(
        f"wrote {args.out}: bare {report['bare_min']:.2f}s vs sweep "
        f"{report['sweep_min']:.2f}s vs traced {report['traced_min']:.2f}s "
        f"over {report['jobs']['total']} jobs ({overheads})"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
