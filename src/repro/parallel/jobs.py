"""Job decomposition for parallel experiment execution.

An experiment's expensive work is almost entirely per-(app, frame,
policy) offline simulations that share nothing with each other, so it
decomposes into independent :class:`SimJob` payloads:

* ``trace`` — generate (and disk-cache) one frame's LLC trace;
* ``sim`` — replay one frame under one policy (:func:`frame_result`);
* ``char`` — characterize one frame under one policy
  (:func:`frame_characterization`).

:func:`plan_for_experiment` derives the job list from the declarations
an experiment makes at :func:`~repro.experiments.common.register` time.
The plan is deduplicated and deterministically ordered, trace jobs
first.  :func:`execute_job` runs one job; the sweep engine's worker
(:mod:`repro.sweep.worker`) calls it once per attempt, in a process of
its own, for ``gspc-experiments --jobs``, ``gspc-sweep`` and
``gspc-serve`` alike.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import List, Optional, Sequence

from repro.errors import ParallelError
from repro.experiments.common import (
    Experiment,
    ExperimentConfig,
    frame_spec_for,
    frame_trace,
    seed_frame_characterization,
    seed_frame_result,
)
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext
from repro.workloads.apps import FrameSpec, app_by_name

#: Job kinds in plan order: traces first, then simulations.
JOB_KINDS = ("trace", "sim", "char")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Validate a ``--jobs`` value; ``0`` means one worker per CPU."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ParallelError(
            f"--jobs must be >= 0 (0 = one worker per CPU), got {jobs}"
        )
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True, order=True)
class SimJob:
    """One independent unit of experiment work."""

    kind: str
    #: Application abbreviation (Table 1 name).
    app: str
    frame_index: int
    #: Policy name; empty for ``trace`` jobs.
    policy: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ParallelError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.kind != "trace" and not self.policy:
            raise ParallelError(f"{self.kind} job needs a policy: {self}")

    @property
    def label(self) -> str:
        suffix = f" {self.policy}" if self.policy else ""
        return f"{self.kind} {self.app} f{self.frame_index}{suffix}"

    @property
    def job_id(self) -> str:
        """Stable, filesystem/journal-safe identity of this job.

        Used as the key of the sweep engine's result journal, so it must
        never depend on anything run-specific (ordering, timing, worker).
        """
        suffix = f":{self.policy}" if self.policy else ""
        return f"{self.kind}:{self.app}:f{self.frame_index}{suffix}"

    def spec(self, config: Optional[ExperimentConfig] = None) -> FrameSpec:
        """The frame this job targets, resolved through ``config``'s
        trace source (Table 1 synthesis when no config is given)."""
        if config is not None:
            return frame_spec_for(self.app, self.frame_index, config)
        return FrameSpec(app_by_name(self.app), self.frame_index)


@dataclasses.dataclass
class JobOutcome:
    """What one worker reported back for one job."""

    job: SimJob
    #: ``SimResult`` / ``FrameCharacterization`` / ``None`` for traces.
    value: object
    seconds: float
    #: Flat span breakdown recorded inside the worker.
    spans: dict
    #: Individual span events (see :mod:`repro.obs.tracing`); empty
    #: unless the caller passed a trace context to :func:`execute_job`.
    events: list = dataclasses.field(default_factory=list)


def plan_for_experiment(
    experiment: Experiment, config: ExperimentConfig
) -> List[SimJob]:
    """The deduplicated, deterministically ordered job list.

    Returns an empty list when the experiment declares no
    parallelizable work (it then runs serially, unchanged).
    """
    frames = config.frames() if experiment.needs_traces else []
    jobs: List[SimJob] = []
    if frames and config.cache_dir is not None:
        # Each frame generated exactly once, published via the
        # concurrency-safe disk cache.  Pointless without a cache — the
        # generated trace could not reach the other workers.
        jobs.extend(
            SimJob("trace", spec.app.abbrev, spec.frame_index)
            for spec in frames
        )
    for policy in experiment.sim_policies:
        jobs.extend(
            SimJob("sim", spec.app.abbrev, spec.frame_index, policy)
            for spec in frames
        )
    for policy in experiment.char_policies:
        jobs.extend(
            SimJob("char", spec.app.abbrev, spec.frame_index, policy)
            for spec in frames
        )
    # Dedup preserving kind order; sort within a kind for determinism.
    unique = sorted(set(jobs), key=lambda j: (JOB_KINDS.index(j.kind), j))
    return unique


def execute_job(
    job: SimJob,
    config: ExperimentConfig,
    trace_ctx: Optional[TraceContext] = None,
    trace_sample: int = 1,
) -> JobOutcome:
    """Run one job to completion (worker-process entry point).

    ``trace_ctx`` — the attempt's context, already narrowed to this job
    by the launcher — switches the recorder into event mode: every span
    this job runs (wrapped under a root span named after the job kind,
    so the worker's busy time has one top-level event) comes back in
    :attr:`JobOutcome.events`, stamped with that context — the raw
    material of the run's merged Chrome/Perfetto timeline.
    ``trace_sample`` keeps every N-th completed span (overhead knob).
    """
    spans = SpanRecorder()
    if trace_ctx is not None:
        from repro.obs import tracing

        tracing.activate(trace_ctx)
        spans.enable_events(context=trace_ctx, sample_period=trace_sample)
    started = time.perf_counter()
    spec = job.spec(config)
    with spans.span(job.kind):
        if job.kind == "trace":
            with spans.span("trace"):
                frame_trace(spec, config)
            value: object = None
        elif job.kind == "sim":
            from repro.sim.offline import simulate_trace

            with spans.span("trace"):
                trace = frame_trace(spec, config)
            value = simulate_trace(
                trace, job.policy, config.llc(), spans=spans,
                engine=config.engine,
            )
        else:  # char
            from repro.analysis.characterize import characterize_frame

            with spans.span("trace"):
                trace = frame_trace(spec, config)
            with spans.span("characterize"):
                value = characterize_frame(
                    trace, job.policy, config.llc(), engine=config.engine
                )
    seconds = time.perf_counter() - started
    return JobOutcome(
        job, value, seconds, spans.flat(), spans.events_payload()
    )


def seed_outcomes(
    outcomes: Sequence[JobOutcome], config: ExperimentConfig
) -> None:
    """Publish worker results into the in-process experiment caches.

    After seeding, a serial :meth:`Experiment.run` resolves every
    declared :func:`frame_result` / :func:`frame_characterization` call
    from cache — so its tables are byte-identical to a fully serial run
    by construction, independent of worker count or completion order.
    """
    for outcome in outcomes:
        if outcome.value is None:
            continue
        spec = outcome.job.spec(config)
        if outcome.job.kind == "sim":
            seed_frame_result(spec, outcome.job.policy, config, outcome.value)
        elif outcome.job.kind == "char":
            seed_frame_characterization(
                spec, outcome.job.policy, config, outcome.value
            )
