"""Sweep worker: the child-process entry point for one job attempt.

The orchestrator hands each attempt a plain-dict payload (spawn-safe
under any multiprocessing start method) plus an output path.  The
worker executes the job through :func:`execute_job`
and ships its result back as a checksummed JSON file written
atomically, so the parent can distinguish "crashed before finishing"
(no file) from "finished but the payload is garbage" (checksum/parse
failure → the attempt is rejected and retried).  Next to the
deterministic ``payload`` the envelope carries the job's pickled
result object (a ``SimResult``, or a ``char`` job's TEX and Z
``EpochStats``), which ``gspc-experiments --jobs`` seeds into its
in-process caches.

Fault injection threads through here: ``crash``/``hang`` fire before
any work (see :mod:`repro.faults`); ``corrupt`` lets the job finish and
then mangles the serialized result, exercising the parent's rejection
path.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
import re
import sys
import time
from typing import Dict, Optional, Union

from repro import faults
from repro.errors import SweepError
from repro.experiments.common import ExperimentConfig, frame_spec_for, frame_trace
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceContext
from repro.sweep.journal import canonical_json, checksum, write_atomic
from repro.sweep.spec import SweepJob, SweepSpec

# Resolving a synthetic frame imports the workload families lazily;
# importing them here means a worker forked from the orchestrator
# inherits them instead of paying that import (~10 ms) in its first job.
import repro.workloads.families  # noqa: F401

#: Result-envelope schema version.
RESULT_VERSION = 1

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._+-]+")


@dataclasses.dataclass
class JobOutcome:
    """What one worker reported back for one job."""

    job: SweepJob
    #: ``SimResult`` / ``{StreamClass: EpochStats}`` / ``None`` for traces.
    value: object
    seconds: float
    #: Flat span breakdown recorded inside the worker.
    spans: dict
    #: Individual span events (see :mod:`repro.obs.tracing`); empty
    #: unless the caller passed a trace context to :func:`execute_job`.
    events: list = dataclasses.field(default_factory=list)


def execute_job(
    job: SweepJob,
    config: ExperimentConfig,
    trace_ctx: Optional[TraceContext] = None,
) -> JobOutcome:
    """Run one job to completion under ``config`` (whose ``llc_mb`` is
    the job's).

    ``trace_ctx`` — the attempt's context, already narrowed to this job
    by the launcher — switches the recorder into event mode: every span
    this job runs (wrapped under a root span named after the job kind,
    so the worker's busy time has one top-level event) comes back in
    :attr:`JobOutcome.events`, stamped with that context — the raw
    material of the run's merged Chrome/Perfetto timeline.
    """
    spans = SpanRecorder()
    if trace_ctx is not None:
        from repro.obs import tracing

        tracing.activate(trace_ctx)
        spans.enable_events(context=trace_ctx)
    started = time.perf_counter()
    spec = frame_spec_for(job.app, job.frame_index, config)
    with spans.span(job.kind):
        with spans.span("trace"):
            trace = frame_trace(spec, config)
        value: object = None
        if job.kind == "sim":
            from repro.sim.offline import simulate_trace

            value = simulate_trace(
                trace, job.policy, config.llc(), spans=spans,
                engine=config.engine,
            )
        elif job.kind == "char":
            from repro.analysis.characterize import characterize_frame
            from repro.sim.offline import replay

            llc = config.llc()
            with spans.span("characterize"):
                record = replay(trace, job.policy, llc, engine=config.engine)
                value = characterize_frame(trace, record, llc)
    seconds = time.perf_counter() - started
    return JobOutcome(
        job, value, seconds, spans.flat(), spans.events_payload()
    )


def result_filename(job_id: str, attempt: int) -> str:
    """Filesystem-safe handoff filename for one attempt."""
    return f"{_UNSAFE_RE.sub('-', job_id)}.a{attempt}.json"


def job_payload(
    job: SweepJob,
    spec: Union[SweepSpec, ExperimentConfig],
    cache_dir: Optional[str],
    inject: Optional[str] = None,
    hang_seconds: float = 300.0,
    trace_ctx: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The picklable description of one attempt.

    ``spec`` supplies the scale, engine and trace source (see
    :class:`~repro.sweep.exec.ProcessLauncher`).

    ``trace_ctx`` is the serialized per-attempt
    :class:`~repro.obs.tracing.TraceContext` (already narrowed to this
    job id and attempt number by the launcher); the worker activates it
    so its spans, logs, and shipped events correlate to the parent run.
    """
    return {
        "job": job.job_id,
        "kind": job.kind,
        "app": job.app,
        "frame_index": job.frame_index,
        "policy": job.policy,
        "llc_mb": job.llc_mb,
        "scale": spec.scale,
        "engine": spec.engine,
        "source": spec.source,
        "cache_dir": cache_dir,
        "inject": inject,
        "hang_seconds": hang_seconds,
        "trace_ctx": trace_ctx,
    }


def _reset_inherited_pools() -> None:
    """Detach from any thread-pool state a fork inherited.

    A child forked from a :class:`~concurrent.futures.ThreadPoolExecutor`
    worker thread (gspc-serve's computation pool does exactly this)
    inherits the pool's interpreter-shutdown hook and its registry of
    worker threads — threads that no longer exist after the fork.  The
    hook's join on those ghosts raises during child shutdown, and
    multiprocessing's fork trampoline pre-arms ``os._exit(1)``, so the
    attempt reports a silent crash even though the job itself succeeded.
    Emptying the registry turns the inherited hook into a no-op.
    """
    pool_mod = sys.modules.get("concurrent.futures.thread")
    if pool_mod is not None:
        pool_mod._threads_queues.clear()


def run_job_in_worker(payload: Dict[str, object], out_path: str) -> None:
    """Child-process entry point: run one attempt, ship the result."""
    _reset_inherited_pools()
    inject = payload.get("inject")
    if inject in ("crash", "hang"):
        faults.fire(str(inject), float(payload["hang_seconds"]))  # type: ignore[arg-type]
    job = SweepJob(
        str(payload["kind"]),
        str(payload["app"]),
        int(payload["frame_index"]),  # type: ignore[arg-type]
        str(payload["policy"]),
        int(payload["llc_mb"]),  # type: ignore[arg-type]
    )
    config = ExperimentConfig(
        scale=float(payload["scale"]),  # type: ignore[arg-type]
        frames_per_app=None,
        llc_mb=job.llc_mb,
        cache_dir=payload["cache_dir"],  # type: ignore[arg-type]
        engine=str(payload["engine"]),
        source=str(payload["source"]),
    )
    trace_ctx = TraceContext.from_dict(payload.get("trace_ctx"))  # type: ignore[arg-type]
    outcome = execute_job(job, config, trace_ctx=trace_ctx)
    result: Dict[str, object] = {
        "job": payload["job"],
        "kind": payload["kind"],
        "app": payload["app"],
        "frame": payload["frame_index"],
    }
    if job.kind == "sim":
        from repro.fastsim.dispatch import choose_engine

        sim_result = outcome.value
        result.update(
            policy=payload["policy"],
            llc_mb=payload["llc_mb"],
            engine=choose_engine(config.engine, job.policy),
            accesses=sim_result.accesses,
            metrics=sim_result.stats.snapshot(),
        )
    # Timing telemetry and the pickled result ride in the *envelope*,
    # never in ``payload``: the journal stores only the payload, and CI
    # diffs journal/manifest metrics byte-for-byte between clean and
    # resumed runs — wall-clock data there would break that
    # determinism contract.
    envelope = {
        "v": RESULT_VERSION,
        "payload": result,
        "seconds": outcome.seconds,
        "pid": os.getpid(),
        "spans": outcome.spans,
        "events": outcome.events,
        "value": base64.b64encode(pickle.dumps(outcome.value)).decode("ascii"),
    }
    text = canonical_json({**envelope, "sha256": checksum(envelope)})
    if inject == "corrupt":
        # Finish the work, then ship garbage: truncating mid-record is
        # both a JSON parse failure and a checksum mismatch.
        text = text[: max(1, len(text) // 2)]
    write_atomic(out_path, text)


def load_result(out_path: str, expected_job: str) -> Dict[str, object]:
    """Parse and verify a worker's result envelope.

    Raises :class:`SweepError` on a missing file, unparsable JSON, a
    checksum mismatch, or a payload for the wrong job — all of which
    the orchestrator treats as a rejected (``corrupt``) attempt.
    """
    try:
        with open(out_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise SweepError("worker produced no result file") from None
    except (OSError, ValueError) as exc:
        raise SweepError(f"unreadable result payload: {exc}") from exc
    if not isinstance(data, dict):
        raise SweepError("result payload is not an object")
    body = {key: value for key, value in data.items() if key != "sha256"}
    if data.get("sha256") != checksum(body):
        raise SweepError("result payload failed its checksum")
    if body.get("v") != RESULT_VERSION:
        raise SweepError(f"unsupported result version {body.get('v')!r}")
    payload = body.get("payload")
    if not isinstance(payload, dict) or payload.get("job") != expected_job:
        raise SweepError(
            f"result payload names job {payload.get('job') if isinstance(payload, dict) else None!r}, "
            f"expected {expected_job!r}"
        )
    return body


def result_value(pickled: str) -> object:
    """Decode the ``value`` of an envelope :func:`load_result` accepted
    (written by the caller's own worker, so safe to unpickle)."""
    return pickle.loads(base64.b64decode(pickled))


__all__ = [
    "RESULT_VERSION",
    "JobOutcome",
    "execute_job",
    "job_payload",
    "load_result",
    "result_value",
    "result_filename",
    "run_job_in_worker",
]
