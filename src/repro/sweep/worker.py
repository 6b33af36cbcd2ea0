"""Sweep worker: the child-process entry point for one job attempt.

The orchestrator hands each attempt a plain-dict payload (spawn-safe
under any multiprocessing start method) plus an output path.  The
worker executes the job through :func:`repro.parallel.jobs.execute_job`
and ships its result back as a checksummed JSON file written
atomically, so the parent can distinguish "crashed before finishing"
(no file) from "finished but the payload is garbage" (checksum/parse
failure → the attempt is rejected and retried).  Next to the
deterministic ``payload`` the envelope carries the job's pickled
result object (``SimResult`` / ``FrameCharacterization``), which
``gspc-experiments --jobs`` seeds into its in-process caches.

Fault injection threads through here: ``crash``/``hang`` fire before
any work (see :mod:`repro.faults`); ``corrupt`` lets the job finish and
then mangles the serialized result, exercising the parent's rejection
path.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import re
import sys
from typing import Dict, Optional, Union

from repro import faults
from repro.errors import SweepError
from repro.experiments.common import ExperimentConfig
from repro.parallel.jobs import SimJob, execute_job
from repro.sweep.journal import canonical_json, checksum, write_atomic
from repro.sweep.spec import SweepJob, SweepSpec

# Resolving a synthetic frame imports the workload families lazily;
# importing them here means every forked attempt inherits them instead
# of paying that import (~10 ms) once per attempt.
import repro.workloads.families  # noqa: F401

#: Result-envelope schema version.
RESULT_VERSION = 1

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._+-]+")


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
    trace_sample: int = 1,
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
        "llc_mb": job.llc_mb or 8,
        "scale": spec.scale,
        "engine": spec.engine,
        "source": spec.source,
        "cache_dir": cache_dir,
        "inject": inject,
        "hang_seconds": hang_seconds,
        "trace_ctx": trace_ctx,
        "trace_sample": trace_sample,
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
    sim_job = SimJob(
        str(payload["kind"]),
        str(payload["app"]),
        int(payload["frame_index"]),  # type: ignore[arg-type]
        str(payload["policy"]),
    )
    config = ExperimentConfig(
        scale=float(payload["scale"]),  # type: ignore[arg-type]
        frames_per_app=None,
        llc_mb=int(payload["llc_mb"]),  # type: ignore[arg-type]
        cache_dir=payload["cache_dir"],  # type: ignore[arg-type]
        engine=str(payload["engine"]),
        # Pre-source payloads (an old journal replayed by a newer
        # binary) default to the synthetic renderer, matching their
        # original meaning.
        source=str(payload.get("source", "synthetic")),
    )
    from repro.obs.tracing import TraceContext

    trace_ctx = TraceContext.from_dict(payload.get("trace_ctx"))  # type: ignore[arg-type]
    outcome = execute_job(
        sim_job,
        config,
        trace_ctx=trace_ctx,
        trace_sample=int(payload.get("trace_sample", 1) or 1),  # type: ignore[arg-type]
    )
    result: Dict[str, object] = {
        "job": payload["job"],
        "kind": payload["kind"],
        "app": payload["app"],
        "frame": payload["frame_index"],
    }
    if sim_job.kind == "sim":
        from repro.fastsim.dispatch import choose_engine

        sim_result = outcome.value
        result.update(
            policy=payload["policy"],
            llc_mb=payload["llc_mb"],
            engine=choose_engine(str(payload["engine"]), sim_job.policy, None),
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
    "job_payload",
    "load_result",
    "result_value",
    "result_filename",
    "run_job_in_worker",
]
