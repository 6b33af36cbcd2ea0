"""Fault-tolerant, resumable sweep orchestration.

The repo's one job executor.  Its unit of work is
:mod:`repro.parallel`'s ``SimJob`` / ``execute_job``: a declarative
:class:`SweepSpec` expands into a job DAG (:func:`expand`), a
:class:`SweepRunner` drives it with per-job timeouts and bounded
exponential-backoff retries, and a crash-safe journal
(:mod:`repro.sweep.journal`) makes any interrupted run resumable with
byte-identical final artifacts.  The ``gspc-sweep`` CLI
(:mod:`repro.sweep.cli`) fronts it all; ``gspc-serve`` and
``gspc-experiments --jobs`` run their jobs on the same runner.
"""

from repro.sweep.exec import (
    ProcessLauncher,
    RetryPolicy,
    SweepOutcome,
    SweepRunner,
)
from repro.sweep.journal import Journal, JournalState, journal_path, replay
from repro.sweep.report import results_csv, write_reports
from repro.sweep.spec import SweepJob, SweepSpec, expand, load_spec, save_spec

__all__ = [
    "Journal",
    "JournalState",
    "ProcessLauncher",
    "RetryPolicy",
    "SweepJob",
    "SweepOutcome",
    "SweepRunner",
    "SweepSpec",
    "expand",
    "journal_path",
    "load_spec",
    "replay",
    "results_csv",
    "save_spec",
    "write_reports",
]
