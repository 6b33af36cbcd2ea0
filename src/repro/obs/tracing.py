"""Cross-process trace context and event collection.

A :class:`TraceContext` identifies one *run* (a CLI invocation) and,
inside a run, one *job attempt*.  It is created once at a CLI entry
point (:meth:`TraceContext.new_run`), serialized into every worker
payload (:mod:`repro.sweep` per-attempt processes, which also run
``gspc-experiments --jobs``), and stamped on every span event, log
record, and metrics dump those workers produce — so a merged timeline
can always answer "which run, which job, which attempt, which process
did this".

The pieces:

* :class:`TraceContext` — frozen, picklable identity
  ``(run_id, job_id, attempt, parent_span_id)`` with dict round-trip
  for process boundaries.
* :func:`activate` / :func:`current` / :func:`deactivate` — the
  process-wide current context (what :mod:`repro.obs.log` stamps onto
  log records).
* :class:`TraceCollector` — a bounded in-memory sink an orchestrator
  feeds with span events from many processes (its own scheduling spans
  plus whatever workers shipped back), ready for
  :func:`repro.obs.traceexport.build_chrome_trace`.

Span *events* everywhere in this package are plain dicts::

    {"name": "replay", "path": "sim/replay", "ts": <unix seconds>,
     "dur": <seconds>, "pid": 1234, "ctx": {"run_id": ..., ...}}

kept JSON/pickle-clean so they cross process boundaries unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import time
import uuid
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ObservabilityError

#: Default cap on events a collector keeps in memory.
DEFAULT_MAX_EVENTS = 200_000

#: Keys of the serialized context dict (empty values are dropped).
CONTEXT_KEYS = ("run_id", "job_id", "attempt", "parent_span_id")


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Identity of one run (and optionally one job attempt) of it."""

    run_id: str
    job_id: str = ""
    attempt: int = 0
    parent_span_id: str = ""

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

    def child(
        self,
        job_id: str,
        attempt: int = 1,
        parent_span_id: str = "",
    ) -> "TraceContext":
        """The context one job attempt runs under."""
        return TraceContext(
            run_id=self.run_id,
            job_id=job_id,
            attempt=attempt,
            parent_span_id=parent_span_id or self.parent_span_id,
        )

    def to_dict(self) -> Dict[str, object]:
        """Pickle/JSON-safe form; falsy fields are omitted."""
        data: Dict[str, object] = {"run_id": self.run_id}
        if self.job_id:
            data["job_id"] = self.job_id
        if self.attempt:
            data["attempt"] = self.attempt
        if self.parent_span_id:
            data["parent_span_id"] = self.parent_span_id
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
            parent_span_id=str(data.get("parent_span_id", "")),
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


# -- event collection ---------------------------------------------------------

#: Keys a span event must carry to be mergeable/exportable.
EVENT_KEYS = ("name", "path", "ts", "dur", "pid")


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


class TraceCollector:
    """Bounded in-memory sink for span events from many processes.

    The orchestrator owns one collector per run: its own scheduling
    spans go in through :meth:`add_span`, and whatever each worker
    shipped back goes in through :meth:`extend`.  The buffer is bounded
    (events past ``max_events`` are counted as dropped, never stored),
    so a pathological run cannot exhaust memory.
    """

    def __init__(
        self,
        context: TraceContext,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_events < 1:
            raise ObservabilityError(
                f"collector max_events must be >= 1, got {max_events}"
            )
        self.context = context
        self.max_events = max_events
        self.events: List[Dict[str, object]] = []
        self.dropped = 0

    def add(self, event: Mapping[str, object]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(dict(event))

    def extend(self, events: Optional[Iterable[Mapping[str, object]]]) -> None:
        for event in events or ():
            self.add(event)

    def add_span(
        self,
        name: str,
        start_unix: float,
        duration: float,
        pid: Optional[int] = None,
        path: Optional[str] = None,
        ctx: Optional[TraceContext] = None,
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one orchestrator-side span (wall-clock timed)."""
        self.add(
            make_event(
                name,
                start_unix,
                duration,
                pid=pid,
                path=path,
                ctx=(ctx or self.context).to_dict(),
                args=args,
            )
        )

    def pids(self) -> List[int]:
        """Distinct process ids seen so far, sorted."""
        return sorted({int(event.get("pid", 0)) for event in self.events})

    def __len__(self) -> int:
        return len(self.events)


def now_unix() -> float:
    """Wall-clock seconds (one indirection point for tests)."""
    return time.time()


__all__ = [
    "CONTEXT_KEYS",
    "DEFAULT_MAX_EVENTS",
    "EVENT_KEYS",
    "TraceCollector",
    "TraceContext",
    "activate",
    "current",
    "deactivate",
    "make_event",
    "now_unix",
]
