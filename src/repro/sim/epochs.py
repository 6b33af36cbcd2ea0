"""Epoch analysis of block lifetimes (Section 2.3).

The life of a block in the LLC, from fill to eviction, is divided into
epochs demarcated by the hits the block enjoys: a block enters E0 when
filled (or, for the texture stream, when a render-target block is
consumed by the samplers), and moves from E_k to E_{k+1} on each hit.
The *death ratio* of E_k is the fraction of blocks that entered E_k but
were evicted before reaching E_{k+1}; the complement is the epoch's
reuse probability.  Figures 7 and 9 report these for the texture and Z
streams under Belady's optimal policy.

A texture life that starts at a consumption reads the LLC's RT bit,
which :func:`rt_transitions` derives from a replay record.  It is the
one derivation of that bit outside the reference :class:`~repro.cache.llc.LLC`:
the fast engine's two RT-bit ``LLCStats`` counts, the epoch
tracker and :func:`repro.analysis.phases.phase_profile` all read its
masks.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro.cache.llc import BYPASS, HIT, MISS
from repro.streams import STREAM_CLASS_TABLE, StreamClass
from repro.trace.record import Trace

#: Epochs 0, 1, 2 are tracked individually; 3 stands for E>=3.
EPOCH_CAP = 3

_CLASS_OF_STREAM = np.array(STREAM_CLASS_TABLE, dtype=np.int8)
_Z, _TEX, _RT = int(StreamClass.Z), int(StreamClass.TEX), int(StreamClass.RT)
#: Event codes of the epoch walk: a fill is its stream class (0-3), a
#: hit ``_HIT_EVENT`` plus its class, and a texture hit that consumed a
#: render target ``_CONSUME_EVENT``.
_HIT_EVENT = 4
_CONSUME_EVENT = 8


@dataclasses.dataclass(frozen=True)
class EpochStats:
    """Final epoch statistics for one tracked stream class."""

    #: entered[k]: block-lives that reached epoch k (k = 0..EPOCH_CAP).
    entered: Tuple[int, ...]
    #: hits_from[k]: hits received by blocks while in epoch k
    #: (hits_from[EPOCH_CAP] aggregates all hits at epoch >= EPOCH_CAP).
    hits_from: Tuple[int, ...]
    #: still_alive[k]: lives resident in epoch k when tracking ended.
    still_alive: Tuple[int, ...]
    #: lives ended by the block being re-acquired by another stream
    #: (e.g. a texture block turned back into a render target).
    conversions: int

    def death_ratio(self, epoch: int, exclude_survivors: bool = True) -> float:
        """Death ratio of epoch ``epoch`` (the lower panels of Figs 7/9).

        With ``exclude_survivors`` (default) blocks still resident at the
        end of the trace are removed from the population, since they
        neither died nor advanced.
        """
        if not 0 <= epoch < EPOCH_CAP:
            raise IndexError(f"death ratio defined for epochs 0..{EPOCH_CAP - 1}")
        population = self.entered[epoch]
        if exclude_survivors:
            population -= self.still_alive[epoch]
        if population <= 0:
            return 0.0
        deaths = population - self.entered[epoch + 1]
        return max(0.0, min(1.0, deaths / population))

    def reuse_probability(self, epoch: int) -> float:
        return 1.0 - self.death_ratio(epoch)

    def hit_distribution(self) -> Tuple[float, ...]:
        """Fraction of stream hits received in each epoch (Fig 7 upper)."""
        total = sum(self.hits_from)
        if total == 0:
            return tuple(0.0 for _ in self.hits_from)
        return tuple(h / total for h in self.hits_from)


def rt_transitions(
    trace: Trace, outcomes: np.ndarray, block_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the accesses that produced and that consumed a render target.

    The LLC's RT bit, as a hit sees it, is the value left by the block's
    last fill, TEX hit or RT hit: a fill sets it to whether the filling
    stream is RT-class, a TEX hit clears it and an RT hit sets it.  A
    ``BYPASS`` neither reads nor sets it, nor does a Z or OTHER hit.
    So an RT-class fill produces, an RT-class hit produces when the
    previous of those accesses to its block was not RT-class, and a
    TEX hit consumes when it was.  The masks' totals are
    ``LLCStats.rt_produced`` and ``LLCStats.rt_consumed``; the consumed
    TEX hits are also ``LLCStats.tex_inter_hits``.
    """
    classes = _CLASS_OF_STREAM[trace.streams]
    fills = outcomes == MISS
    hits = outcomes == HIT
    is_rt = classes == _RT
    tex_hits = hits & (classes == _TEX)
    setters = np.flatnonzero(fills | tex_hits | (hits & is_rt))
    blocks = trace.addresses[setters] >> np.uint64(block_bits)
    # Grouped by block, in access order: a hit's predecessor is its own
    # block's previous setter (there is one, the fill that brought the
    # block in).  A fill's predecessor may belong to another block, but
    # a fill does not read the bit.
    order = setters[np.argsort(blocks, kind="stable")]
    was_rt = np.zeros(len(outcomes), dtype=bool)
    was_rt[order[1:]] = is_rt[order[:-1]]
    produced = is_rt & (fills | (hits & ~was_rt))
    consumed = tex_hits & was_rt
    return produced, consumed


class EpochTracker:
    """Observer of the texture and Z epoch populations of one replay.

    :meth:`observe` walks the replay record once with a per-block state
    machine: a fill (``MISS``) by a tracked class starts a life in E0, a
    hit by the life's class advances it, a hit by any other class
    converts it (ends it), and a ``BYPASS`` touches no block.  A texture
    life also begins when a texture hit consumes a render target
    (:func:`rt_transitions`), mirroring the paper's definition of a
    "texture block".  Lives whose block is still resident when the
    replay ends are the survivors (``EpochStats.still_alive``).
    """

    def __init__(self) -> None:
        #: Final statistics of each tracked class (TEX and Z).
        self.stats: Dict[StreamClass, EpochStats] = {}
        #: Hits of each tracked class on a block with no life of that
        #: class (e.g. a texture read of a Z block).
        self.untracked_hits: Dict[StreamClass, int] = {}

    def observe(self, trace: Trace, replay, geometry) -> None:
        outcomes = replay.outcomes
        live = np.flatnonzero(outcomes != BYPASS)
        events = _CLASS_OF_STREAM[trace.streams[live]]
        events += _HIT_EVENT * (outcomes[live] == HIT)
        _, consumed = rt_transitions(trace, outcomes, geometry.block_bits)
        events[consumed[live]] = _CONSUME_EVENT
        blocks = trace.addresses[live] >> np.uint64(geometry.block_bits)

        # Per-class counters are indexed by class: Z is 0 and TEX is 1.
        tracked = (_Z, _TEX)
        entered = [[0] * (EPOCH_CAP + 1) for _ in tracked]
        hits_from = [[0] * (EPOCH_CAP + 1) for _ in tracked]
        conversions = [0, 0]
        untracked = [0, 0]
        #: block -> (class, epoch) of its life, when one is tracked.
        lives: Dict[int, Tuple[int, int]] = {}
        for block, event in zip(blocks.tolist(), events.tolist()):
            if event < _HIT_EVENT:
                if event in tracked:
                    lives[block] = (event, 0)
                    entered[event][0] += 1
                else:
                    lives.pop(block, None)
                continue
            life = lives.get(block)
            if event == _CONSUME_EVENT:
                if life is not None:
                    conversions[life[0]] += 1
                lives[block] = (_TEX, 0)
                entered[_TEX][0] += 1
                continue
            sclass = event - _HIT_EVENT
            if life is not None and life[0] == sclass:
                epoch = life[1]
                hits_from[sclass][epoch] += 1
                if epoch < EPOCH_CAP:
                    lives[block] = (sclass, epoch + 1)
                    entered[sclass][epoch + 1] += 1
                continue
            if sclass in tracked:
                untracked[sclass] += 1
            if life is not None:
                conversions[life[0]] += 1
                del lives[block]

        still_alive = [[0] * (EPOCH_CAP + 1) for _ in tracked]
        resident = replay.resident_addresses >> np.uint64(geometry.block_bits)
        for block in resident.tolist():
            life = lives.get(block)
            if life is not None:
                still_alive[life[0]][life[1]] += 1
        for sclass in tracked:
            key = StreamClass(sclass)
            self.stats[key] = EpochStats(
                entered=tuple(entered[sclass]),
                hits_from=tuple(hits_from[sclass]),
                still_alive=tuple(still_alive[sclass]),
                conversions=conversions[sclass],
            )
            self.untracked_hits[key] = untracked[sclass]
