"""Pre-converted ``.gsct`` directories as a :class:`TraceSource`.

``gspc-ingest`` converts a capture into a *replay directory*: one
``.gsct`` columnar trace per frame plus a ``source.json`` manifest
recording where each trace came from and its content digest.
:class:`ReplaySource` serves those traces back — the traces are already
in the zero-copy replay format, so :meth:`cache_token` is ``None`` and
the frame-trace cache is bypassed entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.errors import SourceError
from repro.trace.io import load_trace
from repro.trace.record import Trace
from repro.trace.sources import SourceWorkload
from repro.wal import write_atomic
from repro.workloads.apps import FrameSpec

#: Manifest identification.
REPLAY_KIND = "gspc-replay"
REPLAY_VERSION = 1
MANIFEST_NAME = "source.json"


def write_replay_manifest(
    directory: str,
    frames: List[Dict[str, object]],
    origin: Dict[str, object],
    mode: str,
) -> str:
    """Write a replay directory's ``source.json``; returns its path.

    ``frames`` entries need ``workload``, ``frame``, ``file``,
    ``sha256`` and ``accesses`` keys; ``origin`` is the identity of the
    source the traces were converted from.
    """
    manifest = {
        "replay": REPLAY_KIND,
        "version": REPLAY_VERSION,
        "created_by": "gspc-ingest",
        "mode": mode,
        "origin": origin,
        "frames": frames,
    }
    path = os.path.join(directory, MANIFEST_NAME)
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_replay_manifest(directory: str) -> Dict[str, object]:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise SourceError(
            f"replay directory {directory} lacks a readable "
            f"{MANIFEST_NAME}: {exc}"
        ) from exc
    except ValueError as exc:
        raise SourceError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("replay") != REPLAY_KIND:
        raise SourceError(f"{path}: not a {REPLAY_KIND!r} manifest")
    if manifest.get("version") != REPLAY_VERSION:
        raise SourceError(
            f"{path}: manifest version {manifest.get('version')!r} "
            f"unsupported (expected {REPLAY_VERSION})"
        )
    frames = manifest.get("frames")
    if not isinstance(frames, list) or not frames:
        raise SourceError(f"{path}: manifest lists no frames")
    for entry in frames:
        if not isinstance(entry, dict) or not all(
            key in entry
            for key in ("workload", "frame", "file", "sha256", "accesses")
        ):
            raise SourceError(
                f"{path}: frame entries need workload/frame/file/"
                f"sha256/accesses, got {entry!r}"
            )
    return manifest


class ReplaySource:
    """A directory of ``gspc-ingest``-converted ``.gsct`` traces."""

    def __init__(self, path: str) -> None:
        if not os.path.isdir(path):
            raise SourceError(f"replay directory does not exist: {path}")
        self.path = path
        self.spec = f"replay:{path}"
        self._manifest = load_replay_manifest(path)
        self._entries: Dict[tuple, Dict[str, object]] = {}
        for entry in self._manifest["frames"]:
            key = (str(entry["workload"]), int(entry["frame"]))
            if key in self._entries:
                raise SourceError(
                    f"replay directory {path}: duplicate frame "
                    f"{key[0]}#f{key[1]} in {MANIFEST_NAME}"
                )
            trace_path = os.path.join(path, str(entry["file"]))
            if not os.path.isfile(trace_path):
                raise SourceError(
                    f"replay directory {path}: manifest names missing "
                    f"trace file {entry['file']!r}"
                )
            self._entries[key] = entry
        digest = hashlib.sha256()
        for key in sorted(self._entries):
            entry = self._entries[key]
            digest.update(
                f"{key[0]}#f{key[1]}:{entry['sha256']}\n".encode("utf-8")
            )
        self._digest = digest.hexdigest()

    # -- TraceSource protocol ------------------------------------------

    def identity(self) -> Dict[str, object]:
        return {
            "kind": "replay",
            "path": self.path,
            "frames": len(self._entries),
            "origin": self._manifest.get("origin", {}),
            "sha256": self._digest,
        }

    def cache_token(self) -> Optional[str]:
        return None  # .gsct files are already replay-ready; no caching

    def workloads(self) -> List[SourceWorkload]:
        counts: Dict[str, int] = {}
        for workload, _ in self._entries:
            counts[workload] = counts.get(workload, 0) + 1
        return [
            SourceWorkload(name, count)
            for name, count in sorted(counts.items())
        ]

    def frames(self) -> List[FrameSpec]:
        by_name = {w.name: w for w in self.workloads()}
        return [
            FrameSpec(by_name[workload], frame_index)
            for workload, frame_index in sorted(self._entries)
        ]

    def _entry(self, workload: str, frame_index: int) -> Dict[str, object]:
        try:
            return self._entries[(workload, frame_index)]
        except KeyError:
            known = ", ".join(
                f"{w}#f{i}" for w, i in sorted(self._entries)
            )
            raise SourceError(
                f"replay directory {self.path} has no frame "
                f"{workload}#f{frame_index}; available: {known}"
            ) from None

    def frame_spec(self, workload: str, frame_index: int) -> FrameSpec:
        self._entry(workload, frame_index)
        by_name = {w.name: w for w in self.workloads()}
        return FrameSpec(by_name[workload], frame_index)

    def frame_trace(
        self, workload: str, frame_index: int, scale: float = 1.0
    ) -> Trace:
        entry = self._entry(workload, frame_index)
        return load_trace(os.path.join(self.path, str(entry["file"])))
