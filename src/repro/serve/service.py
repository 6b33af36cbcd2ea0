"""The simulation service: job lifecycle, memoization, coalescing.

:class:`SimulationService` is the event-loop-side state machine behind
``gspc-serve``.  A submitted sweep spec is hashed to its content
address (:func:`repro.serve.store.result_key`); the service then

* serves the result straight from the :class:`~repro.serve.store.ResultStore`
  when the key is already stored (*cache hit* — nothing runs);
* attaches the submission to the in-flight computation when the same
  key is already being computed (*coalescing* — identical concurrent
  submissions compute exactly once);
* otherwise schedules one computation on a bounded worker pool.

Computations run :func:`compute_sweep` — the exact
:class:`~repro.sweep.exec.SweepRunner` + worker-process stack
``gspc-sweep`` uses, journal included — in a pool thread, so the
event loop never blocks and a crash mid-computation leaves a resumable
journal behind.  The finished payload is durably stored (WAL first)
*before* the job flips to ``done``, which makes the service crash-safe
by construction: any result a client ever saw as done survives a
``kill -9``.

All service state is mutated only from the event-loop thread; pool
threads hand results back through ``run_in_executor`` futures.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional

from repro.errors import ReproError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext
from repro.serve.store import ResultStore, code_version, result_key
from repro.sweep.exec import ProcessLauncher, RetryPolicy, SweepRunner
from repro.sweep.journal import Journal, journal_path, replay
from repro.sweep.report import results_csv
from repro.sweep.spec import SweepSpec, expand

#: Job states a client can observe.
JOB_STATUSES = ("running", "done", "failed")


def compute_sweep(
    spec: SweepSpec,
    key: str,
    scratch_root: str,
    cache_dir: Optional[str],
    workers: int = 1,
    trace_ctx: Optional[TraceContext] = None,
    retry: RetryPolicy = RetryPolicy(),
) -> Dict[str, object]:
    """Run one sweep to completion and shape its service result payload.

    The scratch directory is keyed by the cache key, so a computation
    killed mid-run resumes from its own journal on the next submission
    of the same spec — completed jobs are never re-executed even when
    the *result* never made it to the store.  The scratch tree is
    removed once the payload is built (the store holds the result from
    then on).
    """
    sweep_dir = os.path.join(scratch_root, key[:16])
    jobs = expand(spec)
    state = replay(journal_path(sweep_dir))
    launcher = ProcessLauncher(
        spec,
        cache_dir,
        os.path.join(sweep_dir, "tmp"),
        trace_ctx=trace_ctx,
    )
    with Journal(journal_path(sweep_dir)) as journal:
        outcome = SweepRunner(
            jobs, journal=journal, launcher=launcher,
            workers=workers, retry=retry,
        ).run(state)
    if outcome.failures:
        job_id, failure = next(iter(outcome.failures.items()))
        raise ServeError(
            f"{len(outcome.failures)} of {len(jobs)} jobs failed permanently "
            f"(first: {job_id}: {failure.get('kind')}: {failure.get('error')})"
        )
    payload: Dict[str, object] = {
        "key": key,
        "spec": spec.to_dict(),
        "engine": spec.engine,
        "code_version": code_version(),
        "jobs": {
            "total": len(jobs),
            "sims": sum(1 for job in jobs if job.kind == "sim"),
        },
        # Deterministic per-job payloads in plan order — the same dicts
        # a gspc-sweep manifest carries in its ``metrics`` section.
        "results": {
            job.job_id: outcome.completed[job.job_id]
            for job in jobs
            if job.kind == "sim"
        },
        # Byte-identical to the results.csv a direct gspc-sweep run of
        # this spec writes (same plan order, same payloads, same
        # formatter) — CI's serve-smoke gate diffs exactly this.
        "results_csv": results_csv(jobs, outcome.completed),
    }
    shutil.rmtree(sweep_dir, ignore_errors=True)
    return payload


@dataclasses.dataclass
class JobEntry:
    """One submitted key's lifecycle, as clients observe it."""

    key: str
    spec: SweepSpec
    status: str = "running"
    #: Result came straight from the store, nothing computed.
    cached: bool = False
    #: Later submissions that attached to this in-flight computation.
    coalesced: int = 0
    #: Total submissions that resolved to this entry.
    submissions: int = 1
    seconds: float = 0.0
    error: str = ""
    submitted_unix: float = dataclasses.field(default_factory=time.time)

    def view(self) -> Dict[str, object]:
        """The JSON shape of this entry on the status endpoints."""
        data: Dict[str, object] = {
            "key": self.key,
            "status": self.status,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "submissions": self.submissions,
            "seconds": self.seconds,
            "submitted_unix": self.submitted_unix,
            "spec": self.spec.to_dict(),
        }
        if self.error:
            data["error"] = self.error
        return data


class SimulationService:
    """Event-loop-side job manager over a bounded computation pool."""

    def __init__(
        self,
        store: ResultStore,
        *,
        scratch_dir: str,
        cache_dir: Optional[str] = None,
        pool_size: int = 2,
        sweep_workers: int = 1,
        ctx: Optional[TraceContext] = None,
        compute: Optional[
            Callable[[SweepSpec, str, Optional[TraceContext]], Dict[str, object]]
        ] = None,
    ) -> None:
        if pool_size < 1:
            raise ServeError(f"pool size must be >= 1, got {pool_size}")
        if sweep_workers < 1:
            raise ServeError(
                f"sweep worker count must be >= 1, got {sweep_workers}"
            )
        self.store = store
        self.scratch_dir = scratch_dir
        self.cache_dir = cache_dir
        self.pool_size = pool_size
        self.sweep_workers = sweep_workers
        self.ctx = ctx or TraceContext.new_run("gspc-serve")
        self._compute = compute or self._compute_sweep
        self._executor = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="gspc-serve-pool"
        )
        #: key -> in-flight entry (status "running").
        self._inflight: Dict[str, JobEntry] = {}
        #: key -> terminal entry this process has seen ("done"/"failed").
        self._settled: Dict[str, JobEntry] = {}
        self.registry = MetricsRegistry()
        self.requests = self.registry.counter("serve.http.requests")
        self.submitted = self.registry.counter("serve.jobs.submitted")
        self.cache_hits = self.registry.counter("serve.jobs.cache_hits")
        self.coalesced = self.registry.counter("serve.jobs.coalesced")
        self.computed = self.registry.counter("serve.jobs.computed")
        self.failed = self.registry.counter("serve.jobs.failed")
        self.latency = self.registry.histogram("serve.request_seconds")
        self.started_unix = time.time()
        self.stop_event = asyncio.Event()

    # -- request-facing operations -------------------------------------------

    def submit(self, spec_data: object) -> JobEntry:
        """Resolve one submission to an entry (raises ServeError on a
        bad spec; never blocks on computation)."""
        try:
            spec = SweepSpec.from_dict(spec_data)
        except ReproError as exc:
            raise ServeError(f"invalid sweep spec: {exc}") from exc
        key = result_key(spec.to_dict(), spec.engine, code_version())
        self.submitted.inc()
        entry = self._inflight.get(key)
        if entry is not None:
            entry.coalesced += 1
            entry.submissions += 1
            self.coalesced.inc()
            return entry
        payload = self.store.get(key)
        if payload is not None:
            self.cache_hits.inc()
            entry = self._settled.get(key)
            if entry is None or entry.status != "done":
                entry = JobEntry(key, spec, status="done", cached=True)
                self._settled[key] = entry
            else:
                entry.submissions += 1
            return entry
        # A previously failed entry is superseded by the fresh attempt.
        self._settled.pop(key, None)
        entry = JobEntry(key, spec)
        self._inflight[key] = entry
        asyncio.ensure_future(self._run(entry))
        return entry

    def status(self, key: str) -> Optional[JobEntry]:
        """The entry for ``key``, consulting the store for results that
        finished in an earlier process life."""
        entry = self._inflight.get(key) or self._settled.get(key)
        if entry is not None:
            return entry
        payload = self.store.get(key)
        if payload is None:
            return None
        try:
            spec = SweepSpec.from_dict(payload.get("spec"))
        except ReproError:
            return None
        entry = JobEntry(key, spec, status="done", cached=True, submissions=0)
        self._settled[key] = entry
        return entry

    def result(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result payload for ``key``, if finished."""
        return self.store.get(key)

    def stats(self) -> Dict[str, object]:
        """The /v1/stats view (also the manifest's ``serve`` section)."""
        return {
            "requests": self.requests.snapshot(),
            "submitted": self.submitted.snapshot(),
            "cache_hits": self.cache_hits.snapshot(),
            "coalesced": self.coalesced.snapshot(),
            "computed": self.computed.snapshot(),
            "failed": self.failed.snapshot(),
            "inflight": len(self._inflight),
            "pool_size": self.pool_size,
            "sweep_workers": self.sweep_workers,
            "uptime_seconds": time.time() - self.started_unix,
            "run_id": self.ctx.run_id,
            "code_version": code_version(),
            "store": self.store.stats(),
        }

    def observe_request(self, route: str, seconds: float) -> None:
        """Per-request telemetry: the request counter and latency."""
        self.requests.inc()
        self.latency.observe(seconds)

    # -- computation ----------------------------------------------------------

    def _compute_sweep(
        self, spec: SweepSpec, key: str, trace_ctx: Optional[TraceContext]
    ) -> Dict[str, object]:
        return compute_sweep(
            spec,
            key,
            self.scratch_dir,
            self.cache_dir,
            workers=self.sweep_workers,
            trace_ctx=trace_ctx,
        )

    def _compute_and_store(
        self, spec: SweepSpec, key: str, trace_ctx: Optional[TraceContext]
    ) -> Dict[str, object]:
        """Pool-thread body: compute, then make the result durable.

        The store put happens *before* the event loop flips the entry
        to done, so "done" always implies "survives kill -9".
        """
        payload = self._compute(spec, key, trace_ctx)
        self.store.put(key, payload)
        return payload

    async def _run(self, entry: JobEntry) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        trace_ctx = self.ctx.child(entry.key[:16])
        try:
            await loop.run_in_executor(
                self._executor,
                self._compute_and_store,
                entry.spec,
                entry.key,
                trace_ctx,
            )
        except ReproError as exc:
            entry.status = "failed"
            entry.error = str(exc)
            self.failed.inc()
        except Exception as exc:  # pragma: no cover - defensive
            entry.status = "failed"
            entry.error = f"{type(exc).__name__}: {exc}"
            self.failed.inc()
        else:
            entry.status = "done"
            self.computed.inc()
        entry.seconds = time.perf_counter() - started
        self._inflight.pop(entry.key, None)
        self._settled[entry.key] = entry

    async def drain(self) -> None:
        """Wait until no computation is in flight (tests, shutdown)."""
        while self._inflight:
            await asyncio.sleep(0.01)

    def close(self) -> None:
        """Stop accepting pool work; queued computations are abandoned
        (their journals make them resumable on resubmission)."""
        self._executor.shutdown(wait=False, cancel_futures=True)


__all__ = [
    "JOB_STATUSES",
    "JobEntry",
    "SimulationService",
    "compute_sweep",
]
