"""The render-cache front end between the pipeline and the LLC.

The GPU's fixed-function units never talk to the LLC directly: vertex
fetches go through the vertex cache, depth tests through the HiZ and Z
caches, blending through the render-target cache, stencil tests through
the stencil cache, and sampler reads through a three-level texture
hierarchy (Section 4).  Misses at the innermost levels — plus dirty
write-backs — form the LLC access trace.  Displayable color writes and
miscellaneous (shader code/constant) reads are uncached internally and
reach the LLC directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.cache.setassoc import LRUCache
from repro.config import RenderCachesConfig
from repro.streams import Stream
from repro.trace.record import Trace, TraceBuilder


class RenderCacheFrontEnd:
    """Routes raw pipeline accesses through the render caches.

    Every miss that escapes the innermost cache of a stream is appended
    to ``sink`` as an LLC load; every dirty line evicted from a render
    cache is appended as an LLC store (write-back).
    """

    def __init__(
        self, config: Optional[RenderCachesConfig] = None, sink: Optional[TraceBuilder] = None
    ) -> None:
        config = config or RenderCachesConfig()
        self.sink = sink if sink is not None else TraceBuilder()
        self.caches: Dict[Stream, LRUCache] = {
            Stream.VERTEX: LRUCache(config.vertex, "vertex"),
            Stream.HIZ: LRUCache(config.hiz, "hiz"),
            Stream.Z: LRUCache(config.z, "z"),
            Stream.STENCIL: LRUCache(config.stencil, "stencil"),
            Stream.RT: LRUCache(config.render_target, "rt"),
        }
        self.texture_levels = (
            LRUCache(config.texture_l1, "tex-l1"),
            LRUCache(config.texture_l2, "tex-l2"),
            LRUCache(config.texture_l3, "tex-l3"),
        )
        self.raw_accesses = 0

    def access_blocks(
        self, addresses: Sequence[int], stream: Stream, is_write: bool = False
    ) -> None:
        """Route a batch of block addresses through one stream's caches."""
        self.raw_accesses += len(addresses)
        if stream is Stream.DISPLAY or stream is Stream.OTHER:
            # Uncached internally: straight to the LLC.
            self.sink.extend(addresses, stream, is_write)
            return
        batch = np.asarray(addresses, dtype=np.uint64).tolist()
        if stream is Stream.TEXTURE:
            # Read-only levels: L2 sees exactly L1's misses in order, and
            # L3 L2's, so each level filters the whole batch in turn.
            for level in self.texture_levels:
                batch, _ = level.filter(batch)
            self.sink.extend(batch, stream)
            return
        emitted, stores = self.caches[stream].filter(batch, is_write)
        self.sink.extend_flagged(emitted, stream, stores)

    def trace(self) -> Trace:
        """The LLC trace so far, its meta stamped with ``raw_accesses``."""
        trace = self.sink.build()
        trace.meta["raw_accesses"] = self.raw_accesses
        return trace
