"""Trace containers, I/O, statistics and synthetic generators."""

from repro.trace.record import Access, Trace, TraceBuilder
from repro.trace.io import load_trace, save_trace
from repro.trace.stats import TraceStats, compute_trace_stats

__all__ = [
    "Access",
    "Trace",
    "TraceBuilder",
    "load_trace",
    "save_trace",
    "TraceStats",
    "compute_trace_stats",
]
