"""Timing spans: nested ``with recorder.span("replay")`` blocks that
aggregate into a per-run phase breakdown, and the run's span events.

A :class:`SpanRecorder` keeps a stack of open spans and an aggregate
table keyed by the span *path* (``("run", "replay")``), so repeated
entries into the same phase accumulate rather than multiply.  The flat
table — trace generation vs. future precompute vs. replay vs. timing
model — goes into the run manifest's ``phases`` section.

    recorder = SpanRecorder()
    with recorder.span("run"):
        with recorder.span("setup"):
            ...
        with recorder.span("replay"):
            ...
    recorder.flat()
    # {"run": {"count": 1, "seconds": ..., "max_seconds": ...},
    #  "run/replay": {...}, "run/setup": {...}}

A recorder is also a run's one buffer of **span events** for
distributed tracing (:meth:`SpanRecorder.enable_events`): every
completed span becomes one event dict (wall-clock start, duration, pid,
trace context — see :mod:`repro.obs.tracing`), and
:meth:`SpanRecorder.add_events` merges events recorded elsewhere (a
sweep attempt's orchestrator span, the events its worker process
shipped back) under the same :data:`MAX_EVENTS` bound.  The buffer
feeds the Chrome/Perfetto exporter in :mod:`repro.obs.traceexport`.
Event recording is off by default and costs nothing when off.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.tracing import TraceContext

SpanPath = Tuple[str, ...]

#: Cap on buffered span events per recorder; past it, events are
#: counted in :attr:`SpanRecorder.dropped_events`, never stored.
MAX_EVENTS = 50_000


@dataclasses.dataclass
class _Frame:
    """One currently open span."""

    name: str
    path: SpanPath
    started: float


class SpanRecorder:
    """Aggregating (and optionally event-recording) span recorder."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self._clock = clock
        self._wall = wall
        self._stack: List[_Frame] = []
        #: path -> [entry count, total seconds, max seconds]
        self._aggregate: Dict[SpanPath, List[float]] = {}
        self._events: Optional[List[Dict[str, object]]] = None
        self._context: Optional[TraceContext] = None
        self.dropped_events = 0

    # -- event recording ------------------------------------------------------

    def enable_events(self, context: Optional[TraceContext] = None) -> None:
        """Start recording one event per completed span, stamped with
        ``context`` when one is given."""
        if self._events is None:
            self._events = []
            # Anchor the monotonic span clock to the wall clock once, so
            # events from different processes merge onto one timeline.
            self._anchor_wall = self._wall()
            self._anchor_perf = self._clock()
        if context is not None:
            self._context = context

    @property
    def events_enabled(self) -> bool:
        return self._events is not None

    @property
    def context(self) -> Optional[TraceContext]:
        return self._context

    def events_payload(self) -> List[Dict[str, object]]:
        """The buffered span events (copies), oldest first.

        Each event is the plain-dict shape defined in
        :mod:`repro.obs.tracing`: ``name``/``path``/``ts`` (unix
        seconds)/``dur`` (seconds)/``pid`` plus the ``ctx`` dict —
        JSON- and pickle-safe for shipping across process boundaries.
        """
        return [dict(event) for event in (self._events or [])]

    def add_events(self, events: Iterable[Mapping[str, object]]) -> None:
        """Merge span events recorded elsewhere (a worker's shipped
        events, an orchestrator span built with
        :func:`~repro.obs.tracing.make_event`) into the buffer, under
        the same bound; a no-op while event recording is off."""
        if self._events is not None:
            for event in events:
                self._append(dict(event))

    def _append(self, event: Dict[str, object]) -> None:
        """Buffer one event while recording, or count it once the
        buffer holds :data:`MAX_EVENTS`."""
        if len(self._events) < MAX_EVENTS:
            self._events.append(event)
        else:
            self.dropped_events += 1

    # -- span lifecycle -------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a named phase; nests under any currently open span."""
        frame = self._push(name)
        try:
            yield
        finally:
            self._close(frame)

    def _push(self, name: str) -> _Frame:
        if not name or "/" in name:
            raise ObservabilityError(f"invalid span name {name!r}")
        frame = _Frame(
            name,
            tuple(entry.name for entry in self._stack) + (name,),
            self._clock(),
        )
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        if frame not in self._stack:
            return  # already force-closed by abandon_open_spans()
        # Close any children left open above this frame (leaked by a
        # manual __enter__ without __exit__) before closing it.
        while self._stack and self._stack[-1] is not frame:
            self._finish(self._stack.pop())
        self._finish(self._stack.pop())

    def _finish(self, frame: _Frame) -> None:
        elapsed = self._clock() - frame.started
        entry = self._aggregate.setdefault(frame.path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        if elapsed > entry[2]:
            entry[2] = elapsed
        if self._events is None:
            return
        event: Dict[str, object] = {
            "name": frame.name,
            "path": "/".join(frame.path),
            "ts": self._anchor_wall + (frame.started - self._anchor_perf),
            "dur": elapsed,
            "pid": os.getpid(),
        }
        if self._context is not None:
            event["ctx"] = self._context.to_dict()
        self._append(event)

    def abandon_open_spans(self) -> int:
        """Force-close every open span (top-of-stack first).

        Exception paths that bail out of a run without unwinding a
        ``with`` block (a manual ``__enter__``, a killed generator)
        would otherwise leave spans open, missing from the aggregates
        and the event buffer.  Returns the number of spans that had to
        be closed (0 on a clean run).
        """
        closed = 0
        while self._stack:
            self._finish(self._stack.pop())
            closed += 1
        return closed

    # -- views ----------------------------------------------------------------

    def flat(self) -> Dict[str, Dict[str, float]]:
        """``{"run/replay": {"count": n, "seconds": s, "max_seconds": m}}``
        for manifests."""
        return {
            "/".join(path): {
                "count": entry[0],
                "seconds": entry[1],
                "max_seconds": entry[2],
            }
            for path, entry in sorted(self._aggregate.items())
        }
