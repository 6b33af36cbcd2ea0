"""Phase-analysis tests."""

from repro.analysis.phases import detect_phase_changes, phase_profile
from repro.config import CacheParams, KB, LLCConfig
from repro.streams import Stream
from repro.trace import synth

TINY = LLCConfig(params=CacheParams(4 * KB, ways=4), banks=1, sample_period=8)


def test_windows_cover_whole_trace():
    trace = synth.cyclic_scan(num_blocks=100, repetitions=5)
    windows = phase_profile(trace, "lru", TINY, window=128)
    assert sum(w.accesses for w in windows) == len(trace)
    assert windows[0].start_index == 0


def test_partial_final_window():
    trace = synth.cyclic_scan(num_blocks=100, repetitions=1)
    windows = phase_profile(trace, "lru", TINY, window=64)
    assert [w.accesses for w in windows] == [64, 36]


def test_hit_rates_reflect_warmup():
    trace = synth.cyclic_scan(num_blocks=32, repetitions=8)
    windows = phase_profile(trace, "lru", TINY, window=32)
    assert windows[0].hit_rate == 0.0       # cold first lap
    assert windows[-1].hit_rate == 1.0      # warmed up


def test_stream_fractions_and_dominant():
    trace = synth.interleaved_streams(per_stream_blocks=64, rounds=1)
    windows = phase_profile(trace, "lru", TINY, window=64)
    assert windows[0].dominant_stream is Stream.Z
    assert windows[1].dominant_stream is Stream.RT
    assert windows[0].stream_fraction(Stream.Z) == 1.0


def test_rt_consumption_windowed():
    trace = synth.producer_consumer(num_blocks=32, rounds=1, consume_fraction=1.0)
    windows = phase_profile(trace, "lru", TINY, window=32)
    assert sum(w.rt_consumed for w in windows) == 32


def test_phase_change_detection():
    trace = synth.interleaved_streams(
        per_stream_blocks=128, rounds=1,
        streams=(Stream.Z, Stream.TEXTURE),
    )
    windows = phase_profile(trace, "lru", TINY, window=128)
    changes = detect_phase_changes(windows)
    assert changes == [1]


def test_no_false_phase_changes_on_uniform_traffic():
    trace = synth.cyclic_scan(num_blocks=64, repetitions=8)
    windows = phase_profile(trace, "lru", TINY, window=64)
    assert detect_phase_changes(windows) == []


def test_real_frame_has_phases():
    from repro.workloads.apps import ALL_APPS
    from repro.workloads.framegen import generate_frame_trace

    trace = generate_frame_trace(ALL_APPS[0], 0, scale=0.0625)
    windows = phase_profile(trace, "drrip", TINY, window=4096)
    assert len(windows) > 4
    # A rendered frame shows at least one pass boundary.
    assert detect_phase_changes(windows, threshold=0.2)


def test_window_hits_sum_to_simulated_hits():
    """Belady needs next-use indices: without them every access looks
    like it is never reused again and the windows undercount hits."""
    from repro.config import paper_baseline
    from repro.sim.offline import simulate_trace
    from repro.workloads.apps import app_by_name
    from repro.workloads.framegen import generate_frame_trace

    trace = generate_frame_trace(app_by_name("3DMarkVAGT1"), 0, 1 / 32)
    llc = paper_baseline(llc_mb=8, scale=1 / 32).llc
    for policy in ("lru", "belady"):
        windows = phase_profile(trace, policy, llc, window=1024)
        result = simulate_trace(trace, policy, llc)
        assert sum(w.hits for w in windows) == result.hits, policy
