"""Spans recorded around the program's layer entry points, from outside.

The benchmark may not edit the program, so its traced run replaces each
layer's public entry point with a wrapper that records a span (layer,
name, start, end, parent span, request id) and a few counters, then
calls the original.  Entry points are replaced at every module that
bound them by name (``from x import f`` copies the reference), never
per-access methods such as ``LLC.access``.

Spans stay in memory and are analysed after the traced pass.  A span's
self time is its duration minus the part of its interval that its child
spans cover; overlapping children are subtracted once.  Spans that run
at the same time (sweep workers) share each instant equally, so layer
shares plus the unattributed rest add up to the pass's wall time.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: Span-name prefix of the benchmark's own spans; their self time is
#: not a program layer, so it lands in ``unattributed_s``.
BENCH_LAYER = "bench"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[dict] = []
        self._next_id = 0
        #: Parent of the next root span; set across a fork so a worker's
        #: spans hang under the orchestrator's attempt span.
        self.fork_parent: Optional[dict] = None

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{os.getpid()}:{self._next_id}"

    def open(self, name: str, request: Optional[str] = None) -> dict:
        span = self.detached(name, request)
        self._stack.append(span)
        return span

    def detached(self, name: str, request: Optional[str] = None) -> dict:
        """A started span that is closed out of stack order (attempts)."""
        parent = self._stack[-1] if self._stack else self.fork_parent
        if request is None and parent is not None:
            request = parent["request"]
        return {
            "id": self._new_id(),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": self.clock(),
            "end": None,
            "request": request,
            "pid": os.getpid(),
            "kids": set(),
        }

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
            if self._stack:
                self._stack[-1]["kids"].add(span["name"])
        self.spans.append(span)

    def reset_for_child(self) -> None:
        """Drop state a forked worker inherited from its parent."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def dump(self, path: str) -> None:
        """Append this process's spans and counts to ``path`` (JSON lines)."""
        record = {
            "spans": [
                {key: value for key, value in span.items() if key != "kids"}
                for span in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def load_dumps(self, directory: str) -> None:
        """Merge every worker dump under ``directory`` into this tracer."""
        if not os.path.isdir(directory):
            return
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(record["spans"])
                    self.counts.update(record["counts"])


def traced(
    tracer: Tracer,
    func: Callable,
    name: str,
    after: Optional[Callable] = None,
    request: Optional[Callable] = None,
) -> Callable:
    """``func`` wrapped in a span; ``after(span, args, kwargs, result)``
    runs once the span is closed (counters, checks)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, request(args, kwargs) if request else None)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        """Replace ``owner.attr``; undo deletes an attribute ``owner``
        only inherited, so the base class's stays in force."""
        if attr in vars(owner):
            previous = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key: object, value: object) -> None:
        previous = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, previous))
        mapping[key] = value

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` at every ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- analysis -----------------------------------------------------------------

def self_intervals(spans: Sequence[dict]) -> Dict[str, List[Interval]]:
    """Per span id: its interval minus the union of its children's."""
    children: Dict[Optional[str], List[Interval]] = collections.defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    result: Dict[str, List[Interval]] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        cursor = start  # everything before it is covered or already kept
        pieces: List[Interval] = []
        for child_start, child_end in sorted(children[span["id"]]):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if child_start > cursor:
                pieces.append((cursor, child_start))
            cursor = max(cursor, child_end)
        if end > cursor:
            pieces.append((cursor, end))
        result[span["id"]] = pieces
    return result


def attribute(spans: Sequence[dict]) -> Dict[str, float]:
    """Wall seconds per span name, from self intervals.

    Each instant is split equally among the spans whose self interval
    covers it, so concurrent workers never count the same second twice
    and the shares of a serial run equal plain self times.
    """
    name_of = {span["id"]: span["name"] for span in spans}
    edges: List[Tuple[float, int, str]] = []
    for span_id, pieces in self_intervals(spans).items():
        for start, end in pieces:
            edges.append((start, 1, name_of[span_id]))
            edges.append((end, -1, name_of[span_id]))
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    shares: Dict[str, float] = collections.defaultdict(float)
    active: collections.Counter = collections.Counter()
    total = 0
    previous = None
    for instant, delta, name in edges:
        if total and previous is not None and instant > previous:
            step = (instant - previous) / total
            for active_name, count in active.items():
                if count:
                    shares[active_name] += step * count
        active[name] += delta
        total += delta
        previous = instant
    return dict(shares)
