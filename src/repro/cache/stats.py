"""LLC statistics: per-stream hit/miss accounting and the inter-stream
(render-target to texture) production/consumption bookkeeping used
throughout Section 2 of the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable

from repro.streams import ALL_STREAMS, Stream, StreamClass, STREAM_CLASS_OF


@dataclasses.dataclass
class StreamStats:
    """Hit/miss/bypass counts for a single stream."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LLCStats:
    """Aggregate statistics collected by the LLC engine."""

    __slots__ = (
        "per_stream",
        "evictions",
        "writebacks",
        "fills",
        "rt_produced",
        "rt_consumed",
        "dram_reads",
        "dram_writes",
    )

    def __init__(self) -> None:
        self.per_stream: Dict[Stream, StreamStats] = {
            stream: StreamStats() for stream in ALL_STREAMS
        }
        self.evictions = 0
        self.writebacks = 0
        self.fills = 0
        #: Render-target blocks produced into the LLC (fills + blocks
        #: re-acquired by the RT stream while resident).
        self.rt_produced = 0
        #: Render-target blocks consumed by the texture samplers from
        #: the LLC before eviction.
        self.rt_consumed = 0
        #: DRAM traffic: block reads (LLC fills + uncached reads) and
        #: block writes (dirty evictions + uncached writes).
        self.dram_reads = 0
        self.dram_writes = 0

    # -- totals -----------------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.per_stream.values())

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.per_stream.values())

    @property
    def bypasses(self) -> int:
        return sum(s.bypasses for s in self.per_stream.values())

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    # -- stream class helpers ----------------------------------------------

    def _streams_of_class(self, sclass: StreamClass) -> Iterable[Stream]:
        return (s for s in ALL_STREAMS if STREAM_CLASS_OF[s] == sclass)

    def class_hits(self, sclass: StreamClass) -> int:
        return sum(self.per_stream[s].hits for s in self._streams_of_class(sclass))

    def class_misses(self, sclass: StreamClass) -> int:
        return sum(self.per_stream[s].misses for s in self._streams_of_class(sclass))

    def class_hit_rate(self, sclass: StreamClass) -> float:
        hits = self.class_hits(sclass)
        lookups = hits + self.class_misses(sclass)
        return hits / lookups if lookups else 0.0

    # -- paper metrics ------------------------------------------------------

    @property
    def tex_hit_rate(self) -> float:
        return self.per_stream[Stream.TEXTURE].hit_rate

    @property
    def z_hit_rate(self) -> float:
        return self.per_stream[Stream.Z].hit_rate

    @property
    def rt_hit_rate(self) -> float:
        """Hit rate of render-target (blending) accesses only."""
        return self.per_stream[Stream.RT].hit_rate

    @property
    def rt_consumption_rate(self) -> float:
        """Fraction of produced render-target blocks consumed as texture
        through the LLC (the lower panel of Figure 6)."""
        return self.rt_consumed / self.rt_produced if self.rt_produced else 0.0

    @property
    def tex_inter_hits(self) -> int:
        """Texture hits satisfied by a block carrying the RT bit: each
        one consumes a render-target production."""
        return self.rt_consumed

    @property
    def tex_intra_hits(self) -> int:
        """Texture hits on blocks without the RT bit."""
        return self.class_hits(StreamClass.TEX) - self.rt_consumed

    @property
    def tex_inter_fraction(self) -> float:
        """Fraction of texture hits that are inter-stream reuses."""
        total = self.tex_inter_hits + self.tex_intra_hits
        return self.tex_inter_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict summary (stable keys) for reports and JSON."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "tex_hit_rate": self.tex_hit_rate,
            "z_hit_rate": self.z_hit_rate,
            "rt_hit_rate": self.rt_hit_rate,
            "rt_consumption_rate": self.rt_consumption_rate,
            "tex_inter_fraction": self.tex_inter_fraction,
            "per_stream": {
                stream.short_name: dataclasses.asdict(stats)
                for stream, stats in self.per_stream.items()
            },
        }
