"""Multi-frame animation sequences (an extension beyond the paper).

The paper evaluates 52 *discrete* frames; a natural follow-on question
is how the policies behave across consecutive frames of an animation,
where persistent resources (static textures, shadow maps, the depth
buffer) are re-touched frame after frame while per-frame surfaces are
fully overwritten.  ``generate_sequence_trace`` concatenates several
consecutive frames of one application *sharing one resource
allocation*, so cross-frame reuse is real: the same texture hot sets,
shifted cold windows (camera motion), and re-rendered render targets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.trace.record import Trace
from repro.workloads.apps import AppProfile
from repro.workloads.framegen import build_frame_passes, build_resources, render_front
from repro.workloads.raster import emit_pass


def generate_sequence_trace(
    app: AppProfile,
    num_frames: int = 2,
    scale: float = 0.125,
    start_frame: int = 0,
) -> Trace:
    """Render ``num_frames`` consecutive frames into one LLC trace.

    Unlike calling :func:`~repro.workloads.framegen.generate_frame_trace`
    per frame, all frames share one set of surfaces and textures and the
    render caches stay warm across frame boundaries — the LLC sees the
    cross-frame reuse a real animation produces.
    """
    if num_frames < 1:
        raise WorkloadError(f"need at least one frame, got {num_frames}")
    rng = np.random.default_rng((app.seed << 8) ^ 0xA11CE)
    resources = build_resources(app, scale, rng)
    front = render_front(
        {
            "name": f"{app.abbrev}#seq{start_frame}+{num_frames}",
            "app": app.name,
            "abbrev": app.abbrev,
            "frames": num_frames,
            "scale": scale,
        }
    )
    boundaries = []
    for frame_offset in range(num_frames):
        frame_index = start_frame + frame_offset
        passes = build_frame_passes(app, resources, frame_index, rng)
        for render_pass in passes:
            emit_pass(
                front, render_pass, rng, resources.vertex_base, resources.shader_base
            )
        boundaries.append(len(front.sink))
    front.sink.meta["frame_boundaries"] = boundaries
    return front.trace()
