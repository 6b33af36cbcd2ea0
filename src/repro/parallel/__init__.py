"""Experiment job decomposition (the unit of work behind ``--jobs``).

Decomposes experiments into independent (app, frame, policy) jobs.
``gspc-experiments --jobs N`` runs them on :mod:`repro.sweep`'s
:class:`~repro.sweep.SweepRunner` and publishes the results into the
in-process experiment caches, so the subsequent serial table build is
byte-identical to a fully serial run.  See ``docs/parallel.md``.
"""

from repro.parallel.jobs import (
    JobOutcome,
    SimJob,
    execute_job,
    plan_for_experiment,
    resolve_jobs,
    seed_outcomes,
)

__all__ = [
    "JobOutcome",
    "SimJob",
    "execute_job",
    "plan_for_experiment",
    "resolve_jobs",
    "seed_outcomes",
]
