"""Epoch tracker tests (Section 2.3 definitions).

The tracker reads one replay record after the replay; each test drives
a short trace through both engines and checks they agree.
"""

import pytest

from repro.config import CacheParams, LLCConfig
from repro.sim.epochs import EpochStats, EpochTracker
from repro.sim.offline import simulate_trace
from repro.streams import Stream, StreamClass

from helpers import make_trace


def _tracked(entries, num_sets=4, ways=2):
    """The tracker after an LRU replay of ``(block, stream[, write])``."""
    config = LLCConfig(
        params=CacheParams(num_sets * ways * 64, ways=ways), banks=1
    )
    trackers = {}
    for engine in ("reference", "fast"):
        trackers[engine] = EpochTracker()
        simulate_trace(
            make_trace(entries), "lru", config,
            observer=trackers[engine], engine=engine,
        )
    reference, fast = trackers["reference"], trackers["fast"]
    assert reference.stats == fast.stats
    assert reference.untracked_hits == fast.untracked_hits
    return reference


def _tex(entries, **geometry):
    return _tracked(entries, **geometry).stats[StreamClass.TEX]


def test_fill_enters_e0():
    assert _tex([(0, Stream.TEXTURE)]).entered[0] == 1


def test_hits_advance_epochs():
    stats = _tex([(0, Stream.TEXTURE)] * 4)
    assert stats.entered == (1, 1, 1, 1)
    assert stats.hits_from == (1, 1, 1, 0)


def test_epoch_cap_accumulates_hits():
    stats = _tex([(0, Stream.TEXTURE)] * 7)
    # Entered each epoch once; extra hits pile into E>=3.
    assert stats.entered == (1, 1, 1, 1)
    assert stats.hits_from == (1, 1, 1, 3)


def test_rt_consumption_starts_texture_life():
    produce = [(0, Stream.RT, True)]
    consume = produce + [(0, Stream.TEXTURE)]
    assert _tex(produce).entered[0] == 0        # RT fill is not a texture life
    assert _tex(consume).entered[0] == 1        # consumption -> E0
    reuse = _tex(consume + [(0, Stream.TEXTURE)])
    assert reuse.hits_from[0] == 1              # first intra hit
    assert reuse.still_alive == (0, 1, 0, 0)


def test_conversion_ends_life():
    stats = _tex([(0, Stream.TEXTURE), (0, Stream.RT, True)])
    assert stats.conversions == 1
    assert stats.still_alive == (0, 0, 0, 0)


def test_z_tracker_ignores_texture():
    tracker = _tracked([(0, Stream.TEXTURE), (1, Stream.Z)])
    assert tracker.stats[StreamClass.Z].entered[0] == 1


def test_death_ratio_counts_evictions():
    stats = _tex(
        [
            (0, Stream.TEXTURE),   # life 1: dies in E0
            (1, Stream.TEXTURE),   # evicts life 1; life 2
            (1, Stream.TEXTURE),   # life 2 -> E1
            (2, Stream.TEXTURE),   # evicts life 2; life 3 (alive)
        ],
        num_sets=1,
        ways=1,
    )
    # entered E0: 3, entered E1: 1, still alive in E0: 1
    assert stats.entered[0] == 3
    assert stats.entered[1] == 1
    assert stats.still_alive[0] == 1
    # Of the two concluded E0 lives, one died: ratio 0.5.
    assert stats.death_ratio(0) == pytest.approx(0.5)


def test_death_ratio_with_survivors_included():
    stats = EpochStats(
        entered=(4, 1, 0, 0), hits_from=(1, 0, 0, 0),
        still_alive=(1, 0, 0, 0), conversions=0,
    )
    assert stats.death_ratio(0, exclude_survivors=False) == pytest.approx(3 / 4)
    assert stats.death_ratio(0) == pytest.approx(2 / 3)


def test_reuse_probability_is_complement():
    stats = EpochStats(
        entered=(10, 3, 0, 0), hits_from=(3, 0, 0, 0),
        still_alive=(0, 0, 0, 0), conversions=0,
    )
    assert stats.reuse_probability(0) == pytest.approx(0.3)


def test_hit_distribution_sums_to_one():
    stats = EpochStats(
        entered=(10, 5, 2, 1), hits_from=(5, 2, 1, 2),
        still_alive=(0, 0, 0, 0), conversions=0,
    )
    assert sum(stats.hit_distribution()) == pytest.approx(1.0)


def test_death_ratio_bad_epoch_rejected():
    stats = EpochStats((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), 0)
    with pytest.raises(IndexError):
        stats.death_ratio(3)


def test_multi_tracker_fans_out():
    """One walk of the record yields the TEX and Z statistics together."""
    tracker = _tracked([(0, Stream.TEXTURE), (1, Stream.Z), (1, Stream.Z)])
    tex, z = tracker.stats[StreamClass.TEX], tracker.stats[StreamClass.Z]
    assert tex.entered == (1, 0, 0, 0)
    assert z.entered == (1, 1, 0, 0)
    assert z.still_alive == (0, 1, 0, 0)


def test_untracked_hits_counted():
    tracker = _tracked([
        (0, Stream.Z),          # fills as Z (untracked by TEX)
        (0, Stream.TEXTURE),    # TEX hit on an untracked life
    ])
    assert tracker.untracked_hits[StreamClass.TEX] == 1
    assert tracker.stats[StreamClass.Z].conversions == 1
