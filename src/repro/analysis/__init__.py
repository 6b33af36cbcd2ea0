"""Characterization, reuse-distance, phase, and reporting helpers."""

from repro.analysis.characterize import characterize_frame
from repro.analysis.misses import MissBreakdown, classify_misses
from repro.analysis.phases import PhaseWindow, detect_phase_changes, phase_profile
from repro.analysis.reuse import ReuseProfile, compute_reuse_profile, reuse_distances
from repro.analysis.tables import Table, format_table

__all__ = [
    "Table",
    "format_table",
    "characterize_frame",
    "MissBreakdown",
    "classify_misses",
    "PhaseWindow",
    "phase_profile",
    "detect_phase_changes",
    "ReuseProfile",
    "compute_reuse_profile",
    "reuse_distances",
]
