"""Cross-process trace context and the span-event shape.

A :class:`TraceContext` identifies one *run* (a CLI invocation) and,
inside a run, one *job attempt*.  It is created once at a CLI entry
point (:meth:`TraceContext.new_run`), serialized into every worker
payload (the worker processes of :mod:`repro.sweep`, which also run
``gspc-experiments --jobs``), and stamped on every span event, log
record, and metrics dump those workers produce — so a merged timeline
can always answer "which run, which job, which attempt, which process
did this".

The pieces:

* :class:`TraceContext` — frozen, picklable identity
  ``(run_id, job_id, attempt)`` with dict round-trip
  for process boundaries.
* :func:`activate` / :func:`current` / :func:`deactivate` — the
  process-wide current context (what :mod:`repro.obs.log` stamps onto
  log records).
* :func:`make_event` — one span event built outside a recorder (an
  orchestrator's per-attempt span), for
  :meth:`repro.obs.spans.SpanRecorder.add_events`.

Span *events* everywhere in this package are plain dicts::

    {"name": "replay", "path": "sim/replay", "ts": <unix seconds>,
     "dur": <seconds>, "pid": 1234, "ctx": {"run_id": ..., ...}}

kept JSON/pickle-clean so they cross process boundaries unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import uuid
from typing import Dict, Mapping, Optional

from repro.errors import ObservabilityError

#: Keys of the serialized context dict (empty values are dropped).
CONTEXT_KEYS = ("run_id", "job_id", "attempt")


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Identity of one run (and optionally one job attempt) of it."""

    run_id: str
    job_id: str = ""
    attempt: int = 0

    def __post_init__(self) -> None:
        if not self.run_id:
            raise ObservabilityError("trace context needs a run_id")
        if self.attempt < 0:
            raise ObservabilityError(
                f"trace context attempt must be >= 0, got {self.attempt}"
            )

    @classmethod
    def new_run(cls, prefix: str = "run") -> "TraceContext":
        """A fresh run-level context (called once per CLI invocation)."""
        return cls(run_id=f"{prefix}-{uuid.uuid4().hex[:12]}")

    def child(self, job_id: str, attempt: int = 1) -> "TraceContext":
        """The context one job attempt runs under."""
        return TraceContext(run_id=self.run_id, job_id=job_id, attempt=attempt)

    def to_dict(self) -> Dict[str, object]:
        """Pickle/JSON-safe form; falsy fields are omitted."""
        data: Dict[str, object] = {"run_id": self.run_id}
        if self.job_id:
            data["job_id"] = self.job_id
        if self.attempt:
            data["attempt"] = self.attempt
        return data

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, object]]) -> Optional["TraceContext"]:
        """Rebuild a context shipped across a process boundary."""
        if not data:
            return None
        unknown = set(data) - set(CONTEXT_KEYS)
        if unknown:
            raise ObservabilityError(
                f"unknown trace-context key(s): {sorted(unknown)}"
            )
        return cls(
            run_id=str(data.get("run_id", "")),
            job_id=str(data.get("job_id", "")),
            attempt=int(data.get("attempt", 0)),  # type: ignore[arg-type]
        )


#: Process-wide current context (None until a CLI activates one).
_CURRENT: Optional[TraceContext] = None


def activate(context: TraceContext) -> TraceContext:
    """Install ``context`` as this process's current trace context."""
    global _CURRENT
    _CURRENT = context
    return context


def current() -> Optional[TraceContext]:
    """The process's current trace context, if any."""
    return _CURRENT


def deactivate() -> None:
    global _CURRENT
    _CURRENT = None


# -- span events --------------------------------------------------------------

def make_event(
    name: str,
    start_unix: float,
    duration: float,
    pid: Optional[int] = None,
    path: Optional[str] = None,
    ctx: Optional[Mapping[str, object]] = None,
    args: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """One well-formed span-event dict (see module docstring)."""
    event: Dict[str, object] = {
        "name": name,
        "path": path if path is not None else name,
        "ts": float(start_unix),
        "dur": max(0.0, float(duration)),
        "pid": int(pid if pid is not None else os.getpid()),
    }
    if ctx:
        event["ctx"] = dict(ctx)
    if args:
        event["args"] = dict(args)
    return event


__all__ = [
    "CONTEXT_KEYS",
    "TraceContext",
    "activate",
    "current",
    "deactivate",
    "make_event",
]
