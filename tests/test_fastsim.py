"""Fast replay engine: dispatch rules and reference equivalence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import KB, CacheParams, LLCConfig
from repro.core.gspc import GSPCPolicy
from repro.core.registry import available_policies, make_policy, resolve_policy
from repro.core.rrip import RRIPPolicy
from repro.errors import SimulationError
from repro.fastsim import ENGINES, choose_engine, fast_simulate_trace
from repro.fastsim.decode import mix_bits_array
from repro.fastsim.dispatch import kernel_kind
from repro.fastsim.kernels import _SPECS, kernel_for, kernel_source
from repro.obs.events import sample_events
from repro.sim.epochs import EpochTracker
from repro.sim.offline import RecordKeeper, build_llc, replay, simulate_trace
from repro.streams import Stream
from repro.trace import synth
from repro.trace.record import Trace
from repro.utils.bitops import mix_bits

TINY = LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4)

small_traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # block
        st.integers(min_value=0, max_value=7),  # stream
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=300,
)


class TweakedGSPC(GSPCPolicy):
    """An ad-hoc subclass: its overridden hook has no kernel."""

    def on_hit(self, ctx):  # pragma: no cover - never simulated
        super().on_hit(ctx)


def _trace_from(entries) -> Trace:
    addresses = np.array([b * 64 for b, _, _ in entries], dtype=np.uint64)
    streams = np.array([s for _, s, _ in entries], dtype=np.uint8)
    writes = np.array([w for _, _, w in entries], dtype=bool)
    return Trace(addresses, streams, writes, {"name": "hyp"})


def _fingerprint(result):
    return (
        result.policy,
        result.accesses,
        result.stats.snapshot(),
        result.extras,
    )


# -- equivalence with the reference engine ------------------------------------


@settings(max_examples=25, deadline=None)
@given(entries=small_traces, policy=st.sampled_from(available_policies()))
def test_fast_engine_matches_reference(entries, policy):
    """Identical SimResult stats/extras on arbitrary small traces, and
    identical epoch statistics read off each engine's replay record."""
    trace = _trace_from(entries)
    reference, fast = EpochTracker(), EpochTracker()
    expected = simulate_trace(
        trace, policy, TINY, observer=reference, engine="reference"
    )
    result = simulate_trace(trace, policy, TINY, observer=fast, engine="fast")
    assert _fingerprint(result) == _fingerprint(expected)
    assert fast.stats == reference.stats


@pytest.mark.parametrize("policy", [name + "+ucd" for name in available_policies()])
def test_fast_engine_matches_reference_with_uncached_streams(policy):
    """Static color/depth bypass accounting matches per stream."""
    trace = synth.interleaved_streams(
        96, 3, streams=(Stream.Z, Stream.RT, Stream.TEXTURE, Stream.DISPLAY)
    )
    reference = simulate_trace(trace, policy, TINY, engine="reference")
    fast = simulate_trace(trace, policy, TINY, engine="fast")
    assert _fingerprint(fast) == _fingerprint(reference)


_GSPC_GEOMETRIES = (
    LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4),
    LLCConfig(params=CacheParams(4 * KB, ways=4), banks=2, sample_period=4),
    LLCConfig(params=CacheParams(8 * KB, ways=4), banks=4, sample_period=8),
)


@settings(max_examples=40, deadline=None)
@given(
    entries=small_traces,
    policy=st.sampled_from(("gspc", "gspztc", "gspztc+tse")),
    geometry=st.sampled_from(_GSPC_GEOMETRIES),
    ucd=st.booleans(),
)
def test_gspc_family_matches_reference(entries, policy, geometry, ucd):
    """Epoch/TSE state machine and PROD/CONS protection survive the
    kernel specialization across stream mixes, geometries, and ucd."""
    trace = _trace_from(entries)
    name = policy + "+ucd" if ucd else policy
    reference = simulate_trace(trace, name, geometry, engine="reference")
    fast = simulate_trace(trace, name, geometry, engine="fast")
    assert _fingerprint(fast) == _fingerprint(reference)


def test_fast_engine_matches_reference_on_rt_tex_pattern():
    """RT->TEX consumption counters survive the kernel specialization."""
    trace = synth.producer_consumer(24, 4, consume_fraction=0.8)
    for policy in ("drrip", "srrip"):
        reference = simulate_trace(trace, policy, TINY, engine="reference")
        fast = simulate_trace(trace, policy, TINY, engine="fast")
        assert _fingerprint(fast) == _fingerprint(reference)
        assert reference.stats.rt_consumed > 0  # the pattern fired at all


RRIP_NAMES = tuple(
    name for name in available_policies() if isinstance(make_policy(name), RRIPPolicy)
)
#: 16 sets of 4 ways: set 1 is a follower of every GSPC-family sampler,
#: set 0 one of its sample sets.
SCAN = LLCConfig(params=CacheParams(4 * KB, ways=4), banks=1, sample_period=4)
SCAN_SETS = (1, 0)


def _scan_entries():
    """Per set, drive the RRIP victim scan down both branches.  Every
    fill is a write, so each eviction names its victim in the record.

    Four fills, then a Z or RT hit on each, leave every way below the
    maximal RRPV: the next miss must age the set and evict way 0.  A
    hit on way 0's new block and on way 1 then leaves ways 2 and 3
    saturated, and the next miss must evict way 2.  Returns the trace
    entries and one ``(branch, set, access position, victim block)``
    per scan.
    """
    z, rt = int(Stream.Z), int(Stream.RT)
    # A display write to an unused set, so ``+ucd`` bypasses one access.
    entries = [(3, int(Stream.DISPLAY), True)]
    scans = []
    for set_index in SCAN_SETS:
        block = [set_index + tag * SCAN.num_sets for tag in range(6)]
        entries += [(block[0], z, True), (block[1], rt, True)]
        entries += [(block[2], z, True), (block[3], rt, True)]
        entries += [(block[0], z, False), (block[1], rt, False)]
        entries += [(block[2], z, False), (block[3], rt, False)]
        scans.append(("ages", set_index, len(entries), block[0]))
        entries += [(block[4], z, True), (block[4], z, False), (block[1], rt, False)]
        scans.append(("saturated", set_index, len(entries), block[2]))
        entries.append((block[5], z, True))
    return entries, scans


@pytest.mark.parametrize("ucd", ("", "+ucd"))
@pytest.mark.parametrize("policy", RRIP_NAMES)
def test_rrip_victim_scan_takes_both_branches(policy, ucd):
    """The first saturated way is evicted when several are, and a set
    with none ages first; the fast record equals the reference's."""
    name = policy + ucd
    entries, scans = _scan_entries()
    # The reference LLC's RRPVs just before each scan pin the branch.
    llc = build_llc(name, SCAN)
    top = llc.policy.max_rrpv
    branch_at = {index: (branch, set_index) for branch, set_index, index, _ in scans}
    for index, (block, stream, write) in enumerate(entries):
        if index in branch_at:
            branch, set_index = branch_at[index]
            base = set_index * SCAN.ways
            rrpvs = llc.policy.rrpv[base:base + SCAN.ways]
            if branch == "ages":
                assert max(rrpvs) < top
            else:
                assert rrpvs.count(top) >= 2 and rrpvs.index(top) == 2
        llc.access(block * 64, stream, write)

    trace = _trace_from(entries)
    reference = replay(trace, name, SCAN, engine="reference")
    fast = replay(trace, name, SCAN, engine="fast")
    for record in (reference, fast):
        assert record.victim_indices.tolist() == [index for _, _, index, _ in scans]
        assert record.victim_addresses.tolist() == [block * 64 for *_, block in scans]
    assert np.array_equal(fast.outcomes, reference.outcomes)
    assert np.array_equal(fast.resident_addresses, reference.resident_addresses)
    assert _fingerprint(fast.result) == _fingerprint(reference.result)
    assert fast.result.stats.bypasses == (1 if ucd else 0)


def test_fast_result_reports_timing_and_meta():
    trace = synth.cyclic_scan(64, 3)
    result = fast_simulate_trace(trace, "lru", TINY)
    assert result.accesses == len(trace)
    assert result.trace_meta["name"] == "cyclic_scan(64x3)"
    assert result.elapsed_seconds >= result.replay_seconds >= 0.0


# -- dispatch rules -----------------------------------------------------------


def test_engines_tuple_and_coverage():
    assert ENGINES == ("reference", "fast", "auto")
    for policy in ("gspc+bypass", "ship-mem", "gs-drrip", "brrip", "dip"):
        assert choose_engine("fast", policy) == "fast"
    assert kernel_kind(TweakedGSPC()) is None


def test_every_registry_name_has_a_kernel():
    """Each registry name, with and without ``+ucd``, builds an instance
    whose exact class has a kernel, so ``auto`` never falls back for a
    name."""
    for name in available_policies():
        for policy in (name, name + "+ucd"):
            instance, _ = resolve_policy(policy)
            assert kernel_kind(instance) is not None, policy


def test_choose_engine_auto_falls_back_for_uncovered_policy():
    assert choose_engine("auto", TweakedGSPC()) == "reference"
    assert choose_engine("auto", "gspc+bypass") == "fast"
    assert choose_engine("auto", "drrip") == "fast"
    assert choose_engine("auto", "gspc") == "fast"


def test_choose_engine_auto_takes_kernels_under_observer(monkeypatch):
    """An observed auto run replays on the kernels and the observer
    reads their record."""
    from repro.fastsim import engine

    calls = []
    original = engine.fast_simulate_trace

    def spy(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "fast_simulate_trace", spy)
    keeper = RecordKeeper()
    trace = synth.random_trace(400, 128, seed=4)
    result = simulate_trace(trace, "drrip", TINY, observer=keeper)
    [call] = calls
    assert any(arg is keeper for arg in call)
    stats = result.stats
    summary = sample_events(trace, keeper.record, TINY, 1)
    assert summary["events"] == stats.hits + stats.fills + stats.evictions


def test_choose_engine_reference_always_allowed():
    assert choose_engine("reference", "gspc") == "reference"
    assert choose_engine("reference", "drrip") == "reference"


def test_choose_engine_rejects_unknown_engine():
    with pytest.raises(SimulationError, match="unknown engine"):
        choose_engine("turbo", "drrip")


def test_choose_engine_fast_rejects_uncovered_policy():
    with pytest.raises(SimulationError) as excinfo:
        choose_engine("fast", TweakedGSPC())
    message = str(excinfo.value)
    assert "not covered" in message
    assert "TweakedGSPC" in message


def test_gspc_subclass_with_overridden_hooks_takes_reference_path():
    """Exact-type dispatch: a subclass's hook overrides must run."""
    assert kernel_kind(GSPCPolicy()) == "gspc"
    assert kernel_kind(TweakedGSPC()) is None
    assert choose_engine("auto", GSPCPolicy()) == "fast"
    assert choose_engine("auto", TweakedGSPC()) == "reference"
    # A registry-named subclass has a kernel of its own.
    assert kernel_kind(resolve_policy("gspc+bypass")[0]) == "gspc_bypass"


def test_choose_engine_fast_accepts_observer():
    """--engine fast accepts an observer and reports what reference does."""
    trace = synth.random_trace(600, 128, seed=6)
    summaries = {}
    for engine in ("reference", "fast"):
        record = replay(trace, "gspc", TINY, engine=engine)
        summaries[engine] = sample_events(trace, record, TINY, 3)
    assert summaries["fast"] == summaries["reference"]
    assert summaries["fast"]["events"] > 0


def test_fast_simulate_trace_rejects_uncovered_policy():
    trace = synth.cyclic_scan(8, 1)
    with pytest.raises(SimulationError, match="no fast kernel"):
        fast_simulate_trace(trace, TweakedGSPC(), TINY)


def test_simulate_trace_unknown_engine_raises():
    trace = synth.cyclic_scan(8, 1)
    with pytest.raises(SimulationError, match="unknown engine"):
        simulate_trace(trace, "drrip", TINY, engine="turbo")


# -- generated kernels --------------------------------------------------------


def test_kernel_source_is_compilable_python():
    for kind in _SPECS:
        source = kernel_source(kind)
        assert source.startswith("def replay(")
        compile(source, f"<{kind}>", "exec")


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1))
@example(values=[0, 2**64 - 1])
def test_ship_signature_hash_matches_mix_bits(values):
    """The decode pass's NumPy hash is ``mix_bits``, bit for bit."""
    mixed = mix_bits_array(np.array(values, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix_bits(value) for value in values]


def test_kernel_for_caches_and_records_source():
    kernel = kernel_for("nru")
    assert kernel is kernel_for("nru")
    assert kernel.__name__ == "replay_nru"
    assert "referenced.index(False, base, end)" in kernel.__source__


def test_kernel_source_rejects_unknown_kind():
    with pytest.raises(SimulationError, match="no fast kernel"):
        kernel_source("plru")
