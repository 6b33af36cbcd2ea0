"""Offline LLC simulation: trace replay, results, and epoch analysis."""

from repro.sim.offline import replay, simulate_trace
from repro.sim.results import Replay, SimResult
from repro.sim.epochs import EpochStats, EpochTracker
from repro.sim.future import next_use_indices

__all__ = [
    "replay",
    "simulate_trace",
    "Replay",
    "SimResult",
    "EpochStats",
    "EpochTracker",
    "next_use_indices",
]
