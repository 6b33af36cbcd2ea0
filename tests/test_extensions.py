"""Tests for the beyond-the-paper extensions: multi-frame sequences and
texture-bypass GSPC."""

import numpy as np
import pytest

from repro.config import paper_baseline
from repro.errors import WorkloadError
from repro.sim.offline import build_llc, simulate_trace
from repro.streams import Stream
from repro.workloads.apps import ALL_APPS
from repro.workloads.sequence import generate_sequence_trace

SCALE = 0.0625


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence_trace(ALL_APPS[3], num_frames=2, scale=SCALE)


class TestSequences:
    def test_two_frames_longer_than_one(self, sequence):
        single = generate_sequence_trace(ALL_APPS[3], num_frames=1, scale=SCALE)
        assert len(sequence) > len(single)
        assert sequence.meta["frames"] == 2
        assert len(sequence.meta["frame_boundaries"]) == 2

    def test_cross_frame_reuse_exists(self, sequence):
        """Frame 2 re-reads blocks frame 1 touched (persistent
        resources), unlike independently generated frames."""
        boundary = sequence.meta["frame_boundaries"][0]
        first = set(sequence.block_addresses()[:boundary].tolist())
        second = set(sequence.block_addresses()[boundary:].tolist())
        overlap = len(first & second) / len(second)
        assert overlap > 0.3

    def test_deterministic(self):
        a = generate_sequence_trace(ALL_APPS[0], num_frames=2, scale=SCALE)
        b = generate_sequence_trace(ALL_APPS[0], num_frames=2, scale=SCALE)
        assert np.array_equal(a.addresses, b.addresses)

    def test_rejects_zero_frames(self):
        with pytest.raises(WorkloadError):
            generate_sequence_trace(ALL_APPS[0], num_frames=0)

    def test_policies_run_on_sequences(self, sequence):
        system = paper_baseline(llc_mb=8, scale=SCALE)
        for policy in ("drrip", "gspc+ucd", "belady"):
            result = simulate_trace(sequence, policy, system.llc)
            assert result.accesses == len(sequence)


class TestGSPCBypass:
    def test_registered(self):
        from repro.core.registry import policy_spec

        assert policy_spec("gspc+bypass").build().name == "gspc+bypass"

    def test_bypasses_dead_textures(self):
        system = paper_baseline(llc_mb=8, scale=SCALE)
        llc = build_llc("gspc+bypass", system.llc)
        policy = llc.policy
        # Teach the sampler that E0 textures are dead.
        for bank in range(system.llc.banks):
            policy.counters["fill_e0"][bank] = 200
            policy.counters["hit_e0"][bank] = 1
        follower = next(
            s
            for s in range(llc.geometry.num_sets)
            if not llc.geometry.is_sample_set[s]
        )
        outcome = llc.access(follower * 64, Stream.TEXTURE)
        from repro.cache.llc import BYPASS

        assert outcome == BYPASS
        assert not llc.contains(follower * 64)
        # A vetoed fill: a miss that fills nothing.
        assert (llc.stats.misses, llc.stats.fills, llc.stats.bypasses) == (1, 0, 0)

    def test_never_bypasses_samples(self):
        system = paper_baseline(llc_mb=8, scale=SCALE)
        llc = build_llc("gspc+bypass", system.llc)
        policy = llc.policy
        for bank in range(system.llc.banks):
            policy.counters["fill_e0"][bank] = 200
        sample = llc.geometry.sample_sets[0]
        llc.access(sample * 64, Stream.TEXTURE)
        assert llc.contains(sample * 64)

    def test_never_bypasses_other_streams(self):
        system = paper_baseline(llc_mb=8, scale=SCALE)
        llc = build_llc("gspc+bypass", system.llc)
        for bank in range(system.llc.banks):
            llc.policy.counters["fill_e0"][bank] = 200
        follower = next(
            s
            for s in range(llc.geometry.num_sets)
            if not llc.geometry.is_sample_set[s]
        )
        llc.access(follower * 64, Stream.RT, is_write=True)
        assert llc.contains(follower * 64)

    def test_competitive_with_gspc_on_frames(self):
        """Bypass must not blow up miss counts (sanity, not superiority)."""
        from repro.workloads.framegen import generate_frame_trace

        system = paper_baseline(llc_mb=8, scale=SCALE)
        trace = generate_frame_trace(ALL_APPS[2], 0, scale=SCALE)
        gspc = simulate_trace(trace, "gspc", system.llc)
        bypass = simulate_trace(trace, "gspc+bypass", system.llc)
        assert bypass.misses < gspc.misses * 1.1
