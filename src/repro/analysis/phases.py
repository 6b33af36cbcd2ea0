"""Phase analysis: windowed time series of LLC behaviour within a frame.

The paper simulates "the rendering of each frame entirely capturing
several distinct phase changes that occur as rendering progresses" —
shadow passes, geometry passes, post-processing and the final resolve
all stress the LLC differently.  :func:`phase_profile` records, per
fixed-size access window, the stream mix, hit rate, and render-target
consumption, so those phases become visible and the sampled-counter
dynamics of the GSPC family can be audited against them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.cache.llc import HIT
from repro.config import LLCConfig
from repro.core.base import NEVER
from repro.sim.future import next_use_indices
from repro.sim.offline import PolicyLike, build_llc
from repro.streams import ALL_STREAMS, Stream
from repro.trace.record import Trace


@dataclasses.dataclass(frozen=True)
class PhaseWindow:
    """Aggregate behaviour of one window of consecutive LLC accesses."""

    start_index: int
    accesses: int
    hits: int
    #: accesses per stream within the window
    stream_counts: Dict[Stream, int]
    rt_consumed: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def stream_fraction(self, stream: Stream) -> float:
        if self.accesses == 0:
            return 0.0
        return self.stream_counts.get(stream, 0) / self.accesses

    @property
    def dominant_stream(self) -> Stream:
        return max(ALL_STREAMS, key=lambda s: self.stream_counts.get(s, 0))


def phase_profile(
    trace: Trace,
    policy: PolicyLike = "drrip",
    llc_config: Optional[LLCConfig] = None,
    window: int = 8192,
) -> List[PhaseWindow]:
    """Replay ``trace`` and return its per-window phase series."""
    llc = build_llc(policy, llc_config or LLCConfig())
    windows: List[PhaseWindow] = []
    counts: Dict[Stream, int] = {stream: 0 for stream in ALL_STREAMS}
    hits = 0
    consumed_before = 0
    start = 0
    access = llc.access
    addresses = trace.addresses.tolist()
    streams = trace.streams.tolist()
    writes = trace.writes.tolist()
    if llc.policy.needs_future:
        next_uses = next_use_indices(
            trace.block_addresses(llc.geometry.block_bytes)
        ).tolist()
    else:
        next_uses = None

    def close(end_index: int) -> None:
        nonlocal counts, hits, consumed_before, start
        accesses = end_index - start
        if accesses <= 0:
            return
        windows.append(
            PhaseWindow(
                start_index=start,
                accesses=accesses,
                hits=hits,
                stream_counts=dict(counts),
                rt_consumed=llc.stats.rt_consumed - consumed_before,
            )
        )
        counts = {stream: 0 for stream in ALL_STREAMS}
        hits = 0
        consumed_before = llc.stats.rt_consumed
        start = end_index

    for index in range(len(addresses)):
        outcome = access(
            addresses[index],
            streams[index],
            writes[index],
            next_uses[index] if next_uses is not None else NEVER,
        )
        counts[Stream(streams[index])] += 1
        if outcome == HIT:
            hits += 1
        if index + 1 - start >= window:
            close(index + 1)
    close(len(addresses))
    return windows


def detect_phase_changes(
    windows: List[PhaseWindow], threshold: float = 0.25
) -> List[int]:
    """Indices of windows whose dominant stream mix shifted sharply.

    A phase change is flagged when some stream's share moves by more
    than ``threshold`` between consecutive windows — the signature of a
    pass boundary (geometry -> post-processing, etc.).
    """
    changes: List[int] = []
    for index in range(1, len(windows)):
        previous, current = windows[index - 1], windows[index]
        for stream in ALL_STREAMS:
            delta = abs(
                current.stream_fraction(stream) - previous.stream_fraction(stream)
            )
            if delta > threshold:
                changes.append(index)
                break
    return changes
