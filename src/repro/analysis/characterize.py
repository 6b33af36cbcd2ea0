"""Frame characterization: the epoch populations behind Section 2.3.

``characterize_frame`` walks one frame's replay record with an
:class:`~repro.sim.epochs.EpochTracker` and returns the epoch statistics
of the texture and Z streams that Figures 7 and 9 report.  The other
Section-2 measurements need no post-pass: the stream access mix is
:func:`~repro.trace.stats.compute_trace_stats`, and the per-stream hit
rates and inter-stream texture hits are the record's
:class:`~repro.cache.stats.LLCStats`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.geometry import CacheGeometry
from repro.config import LLCConfig
from repro.sim.epochs import EpochStats, EpochTracker
from repro.sim.results import Replay
from repro.streams import StreamClass
from repro.trace.record import Trace


def characterize_frame(
    trace: Trace, record: Replay, llc_config: Optional[LLCConfig] = None
) -> Dict[StreamClass, EpochStats]:
    """The TEX and Z epoch statistics of ``record``, ``trace``'s replay
    on ``llc_config``'s LLC (:func:`~repro.sim.offline.replay`)."""
    tracker = EpochTracker()
    tracker.observe(
        trace, record, CacheGeometry.from_config(llc_config or LLCConfig())
    )
    return tracker.stats
