"""Trace-level statistics (independent of any cache).

These feed the characterization experiments: the stream-wise access mix of
Figure 4 is a property of the trace alone, and footprints put the LLC
capacity into context.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.streams import ALL_STREAMS, Stream
from repro.trace.record import Trace


@dataclasses.dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace."""

    accesses: int
    writes: int
    #: Accesses per stream.
    stream_counts: Dict[Stream, int]
    #: Distinct 64 B blocks per stream.
    stream_footprint_blocks: Dict[Stream, int]
    #: Distinct 64 B blocks overall.
    footprint_blocks: int

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_blocks * 64

    def stream_fraction(self, stream: Stream) -> float:
        """Fraction of all accesses contributed by ``stream``."""
        if self.accesses == 0:
            return 0.0
        return self.stream_counts[stream] / self.accesses

    def mix(self) -> Dict[Stream, float]:
        """The Figure-4 style access mix, one fraction per stream."""
        return {stream: self.stream_fraction(stream) for stream in ALL_STREAMS}


def compute_trace_stats(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace`` in a single pass."""
    blocks = trace.block_addresses()
    stream_counts: Dict[Stream, int] = {}
    stream_footprint: Dict[Stream, int] = {}
    for stream in ALL_STREAMS:
        mask = trace.stream_mask(stream)
        stream_counts[stream] = int(mask.sum())
        stream_footprint[stream] = (
            int(np.unique(blocks[mask]).size) if stream_counts[stream] else 0
        )
    return TraceStats(
        accesses=len(trace),
        writes=int(trace.writes.sum()),
        stream_counts=stream_counts,
        stream_footprint_blocks=stream_footprint,
        footprint_blocks=int(np.unique(blocks).size) if len(trace) else 0,
    )
