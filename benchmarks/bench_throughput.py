"""Hot-loop micro-benchmarks: simulator and generator throughput.

Run under pytest-benchmark::

    pytest benchmarks/bench_throughput.py --benchmark-only

Nothing gates these numbers: absolute accesses/s measure the host as
much as the code.  The gated replay benchmark is ``bench_fastsim.py``,
whose metric is each policy's fast-over-reference speedup measured in
the same run.
"""

import pytest

from repro.config import CacheParams, KB, LLCConfig
from repro.sim.future import next_use_indices
from repro.sim.offline import replay, simulate_trace
from repro.trace import synth
from repro.workloads.apps import ALL_APPS
from repro.workloads.framegen import generate_frame_trace

LLC = LLCConfig(params=CacheParams(128 * KB, ways=16), banks=1, sample_period=16)


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
    """Replay time with and without the sampled event log.

    Both rows replay on the same engine; the sampling row then reads
    the replay record once with ``sample_events``, one vectorised pass
    for each set's fill-up point and one over every 64th access.
    Compare the two rows to measure that post-pass (target: < 5% of the
    replay, so telemetry can stay on by default).
    """
    from repro.obs.events import sample_events

    def run():
        record = replay(mixed_trace, "drrip", LLC)
        if observer == "sampling":
            sample_events(mixed_trace, record, LLC)
        return record.result

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
    from repro.gpu.detailed import simulate_frame_detailed

    system = paper_baseline(llc_mb=8, scale=0.125)
    timing = benchmark(simulate_frame_detailed, mixed_trace, "drrip", system)
    assert timing.accesses == len(mixed_trace)


def test_reuse_distance_throughput(benchmark, mixed_trace):
    """Fenwick-tree stack distances: accesses processed per second."""
    from repro.analysis.reuse import reuse_distances

    blocks = mixed_trace.block_addresses().tolist()
    benchmark(reuse_distances, blocks)
