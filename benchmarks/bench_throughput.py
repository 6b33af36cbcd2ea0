"""Hot-loop micro-benchmarks: simulator and generator throughput.

Run under pytest-benchmark for the per-policy hot-loop numbers, or as a
script for the CI benchmark-regression smoke::

    PYTHONPATH=src python benchmarks/bench_throughput.py --out BENCH_throughput_ci.json

The script mode replays one small frame under a policy roster with
:func:`repro.sim.offline.simulate_trace` and emits a JSON report whose
``metrics`` map holds replay accesses/sec per policy, which
``check_regression.py`` gates against the committed
``BENCH_throughput.json`` (the default ``--out``, so a plain run
refreshes it).
"""

from repro.config import CacheParams, KB, LLCConfig
from repro.sim.future import next_use_indices
from repro.sim.offline import simulate_trace
from repro.trace import synth
from repro.workloads.apps import ALL_APPS
from repro.workloads.framegen import generate_frame_trace

try:
    import pytest
except ImportError:  # script mode: the CI bench job installs only numpy
    pytest = None

LLC = LLCConfig(params=CacheParams(128 * KB, ways=16), banks=1, sample_period=16)

if pytest is not None:

    @pytest.fixture(scope="module")
    def mixed_trace():
        return synth.producer_consumer(
            1024, 8, consume_fraction=0.7, gap_blocks=4096
        )

    @pytest.mark.parametrize(
        "policy", ["lru", "nru", "drrip", "ship-mem", "gspc", "belady"]
    )
    def test_policy_throughput(benchmark, mixed_trace, policy):
        """Accesses simulated per second, per policy."""
        result = benchmark(simulate_trace, mixed_trace, policy, LLC)
        assert result.accesses == len(mixed_trace)

    @pytest.mark.parametrize("observer", ["off", "sampling"])
    def test_observer_overhead(benchmark, mixed_trace, observer):
        """Replay throughput with and without the sampling event observer.

        Compare the two rows to measure the observer tax (target: < 5%
        replay-throughput regression, so telemetry can stay on by default).
        """
        from repro.obs.events import SamplingObserver

        def run():
            obs = SamplingObserver() if observer == "sampling" else None
            return simulate_trace(mixed_trace, "drrip", LLC, observer=obs)

        result = benchmark(run)
        assert result.accesses == len(mixed_trace)

    def test_next_use_precompute_throughput(benchmark, mixed_trace):
        blocks = mixed_trace.block_addresses()
        benchmark(next_use_indices, blocks)

    def test_frame_generation_throughput(benchmark):
        """Synthetic-frame synthesis speed (1/16 linear scale)."""
        trace = benchmark.pedantic(
            generate_frame_trace,
            args=(ALL_APPS[0], 0),
            kwargs={"scale": 0.0625},
            rounds=1,
            iterations=1,
        )
        assert len(trace) > 0

    def test_detailed_timing_throughput(benchmark, mixed_trace):
        """Event-driven timing model: accesses simulated per second."""
        from repro.config import paper_baseline
        from repro.gpu.detailed import DetailedGPUSimulator

        simulator = DetailedGPUSimulator(paper_baseline(llc_mb=8, scale=0.125))
        timing = benchmark(simulator.run, mixed_trace, "drrip")
        assert timing.accesses == len(mixed_trace)

    def test_reuse_distance_throughput(benchmark, mixed_trace):
        """Fenwick-tree stack distances: accesses processed per second."""
        from repro.analysis.reuse import reuse_distances

        blocks = mixed_trace.block_addresses().tolist()
        benchmark(reuse_distances, blocks)


# -- CI smoke script ----------------------------------------------------------

SMOKE_POLICIES = ("drrip", "nru", "gspc", "gspc+ucd", "belady")


def run_smoke(scale: float = 0.0625) -> dict:
    """Replay one small frame under each smoke policy; returns the report."""
    from repro.config import paper_baseline

    trace = generate_frame_trace(ALL_APPS[0], 0, scale)
    llc = paper_baseline(llc_mb=8, scale=scale).llc
    results = [simulate_trace(trace, policy, llc) for policy in SMOKE_POLICIES]
    return {
        "trace": {"name": trace.meta.get("name"), "accesses": len(trace)},
        "scale": scale,
        "policies": list(SMOKE_POLICIES),
        "metrics": {
            result.policy: {
                "value": result.replay_accesses_per_second,
                "unit": "accesses/s",
                "better": "higher",
            }
            for result in results
        },
    }


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Benchmark-regression smoke: per-policy replay throughput."
    )
    parser.add_argument(
        "--out", default="BENCH_throughput.json", help="report path"
    )
    parser.add_argument(
        "--scale", type=float, default=0.0625, help="linear frame scale"
    )
    args = parser.parse_args(argv)
    report = run_smoke(scale=args.scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    slowest = min(entry["value"] for entry in report["metrics"].values())
    print(
        f"wrote {args.out}: {report['trace']['accesses']:,} accesses, "
        f"slowest policy {slowest:,.0f} acc/s"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
