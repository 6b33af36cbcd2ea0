"""Command-stream capture and replay.

``capture_frame_commands`` records the command stream of one synthetic
frame; ``replay_command_list`` executes a (possibly deserialized)
command stream against an arbitrary render-cache configuration and
returns the resulting LLC trace.  Replay is seeded independently of
capture, but the command stream pins every decision that matters
(regions, coverage, phases, bindings, states), so the *structure* of
the generated accesses is identical across replays; only per-tile
coverage noise differs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import RenderCachesConfig
from repro.trace.record import Trace
from repro.workloads.apps import AppProfile
from repro.workloads.commands import CommandList, capture_commands, passes_from_commands
from repro.workloads.framegen import frame_prologue, render_front
from repro.workloads.raster import emit_pass


def capture_frame_commands(
    app: AppProfile, frame_index: int = 0, scale: float = 0.125
) -> CommandList:
    """Capture one synthetic frame as a serializable command stream."""
    _, resources, passes, meta = frame_prologue(app, frame_index, scale)
    return capture_commands(
        passes,
        meta={
            **meta,
            "vertex_base": resources.vertex_base,
            "vertex_blocks": resources.vertex_blocks,
            "shader_base": resources.shader_base,
        },
    )


def replay_command_list(
    command_list: CommandList,
    render_caches: Optional[RenderCachesConfig] = None,
    seed: int = 0,
) -> Trace:
    """Execute a command stream; returns the LLC access trace."""
    front = render_front(dict(command_list.meta), render_caches)
    rng = np.random.default_rng(seed)
    vertex_base = int(command_list.meta.get("vertex_base", 1 << 48))
    shader_base = int(command_list.meta.get("shader_base", 1 << 49))
    for render_pass in passes_from_commands(command_list):
        emit_pass(front, render_pass, rng, vertex_base, shader_base)
    trace = front.trace()
    trace.meta["replayed"] = True
    return trace
