"""Fast-engine vs reference-engine replay throughput.

Runs every registry policy through both engines on the same traces,
hard-fails unless the results are byte-identical, and reports the
replay-loop speedup per policy::

    PYTHONPATH=src python benchmarks/bench_fastsim.py --out BENCH_fastsim.json

Two workloads are measured.  The *resident* trace (a cache-fitting
cyclic scan, ~97% hit rate) is the headline number: steady-state replay
where per-access engine overhead dominates, which is what the fast
kernels eliminate.  The *mixed* producer/consumer trace is reported for
context — on miss-heavy traces both engines spend their time on
evictions (victim selection, the dict deletes and inserts, RRIP aging),
so the gap narrows.

Timing is best-of-``--repeats`` on ``replay_seconds`` (setup excluded;
both engines share the same vectorized decode costs there).  The
report's ``metrics`` map holds each ``workload/policy`` pair's
fast-over-reference ``speedup`` (unit ``x``), measured in the same run,
so the gate compares the code and not the speed of the host it ran on;
both engines' accesses/sec stay under ``workloads``, ungated.
``check_regression.py`` gates a CI run's ``BENCH_fastsim_ci.json``
against the committed ``BENCH_fastsim.json``.
"""

from repro.config import CacheParams, KB, MB, LLCConfig
from repro.core.registry import available_policies
from repro.sim.offline import simulate_trace
from repro.trace import synth

#: Every registry base policy, plus ``gspc+ucd`` — the paper's headline
#: configuration (GSPC with the DISPLAY stream uncached) gets its own
#: gated row rather than riding on plain ``gspc``.
BENCH_POLICIES = available_policies() + ("gspc+ucd",)

WORKLOADS = (
    (
        "resident",
        lambda: synth.cyclic_scan(4096, 40),
        LLCConfig(params=CacheParams(1 * MB, ways=16), banks=2, sample_period=16),
    ),
    (
        "mixed",
        lambda: synth.producer_consumer(
            1024, 8, consume_fraction=0.7, gap_blocks=4096
        ),
        LLCConfig(params=CacheParams(128 * KB, ways=16), banks=1, sample_period=16),
    ),
)


def _fingerprint(result):
    return (result.stats.snapshot(), result.extras)


def measure_policy(trace, llc, policy: str, repeats: int) -> dict:
    """Best-of-``repeats`` replay throughput for both engines."""
    reference = fast = None
    for _ in range(repeats):
        ref_run = simulate_trace(trace, policy, llc, engine="reference")
        fast_run = simulate_trace(trace, policy, llc, engine="fast")
        assert _fingerprint(ref_run) == _fingerprint(fast_run), (
            f"fast/reference divergence under {policy!r} "
            f"on {trace.meta.get('name')}"
        )
        if reference is None or ref_run.replay_seconds < reference.replay_seconds:
            reference = ref_run
        if fast is None or fast_run.replay_seconds < fast.replay_seconds:
            fast = fast_run
    return {
        "reference_accesses_per_second": reference.replay_accesses_per_second,
        "fast_accesses_per_second": fast.replay_accesses_per_second,
        "speedup": fast.replay_accesses_per_second
        / reference.replay_accesses_per_second,
        "hit_rate": reference.hit_rate,
    }


def run_bench(repeats: int = 3) -> dict:
    report = {"policies": list(BENCH_POLICIES), "workloads": {}}
    for name, build, llc in WORKLOADS:
        trace = build()
        rows = {
            policy: measure_policy(trace, llc, policy, repeats)
            for policy in BENCH_POLICIES
        }
        report["workloads"][name] = {
            "trace": {"name": trace.meta.get("name"), "accesses": len(trace)},
            "results": rows,
        }
    report["metrics"] = {
        f"{name}/{policy}": {
            "value": row["speedup"],
            "unit": "x",
            "better": "higher",
        }
        for name, section in report["workloads"].items()
        for policy, row in section["results"].items()
    }
    return report


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Fast vs reference engine replay throughput."
    )
    parser.add_argument("--out", default="BENCH_fastsim.json", help="report path")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    args = parser.parse_args(argv)
    report = run_bench(repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, section in report["workloads"].items():
        for policy, row in section["results"].items():
            print(
                f"{name:10s} {policy:12s} "
                f"ref {row['reference_accesses_per_second']:>12,.0f}/s  "
                f"fast {row['fast_accesses_per_second']:>12,.0f}/s  "
                f"x{row['speedup']:.2f}"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
