"""Frame synthesis: application profile -> render passes -> LLC trace.

``generate_frame_trace`` is the entry point used by the experiments: it
builds a frame's resources (back buffer, depth/stencil/HiZ buffers,
shadow maps, post-processing ping-pong targets, static MIP textures),
constructs the pass list (shadow -> main geometry -> post-processing ->
final + display resolve), rasterizes every draw, filters the raw
accesses through the render caches, and returns the resulting LLC
access trace.  Every synthesized trace (frames, command-list replays,
sequences, the coherent family) is rendered into the front end that
:func:`render_front` builds.

Frames are deterministic: the RNG is seeded from (application, frame
index), and per-frame phase shifts model camera/scene movement so that
different frames of one application touch shifted texture and vertex
regions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.config import RenderCachesConfig, render_cache_factor
from repro.errors import WorkloadError
from repro.trace.record import Trace, TraceBuilder
from repro.workloads.apps import AppProfile
from repro.workloads.passes import (
    DrawCall,
    RenderPass,
    TextureBinding,
    full_screen_region,
)
from repro.workloads.raster import SHADER_BLOCKS, emit_pass
from repro.workloads.surfaces import (
    AddressSpace,
    MipmappedTexture,
    Surface,
    allocate_surface,
    allocate_texture,
)


def _scaled_px(value: int, scale: float, minimum: int = 32) -> int:
    """Scale a pixel extent, rounding to a multiple of 4 (one tile)."""
    scaled = int(round(value * scale / 4)) * 4
    return max(minimum, scaled)


@dataclasses.dataclass
class FrameResources:
    """Everything a frame renders into or samples from."""

    space: AddressSpace
    back_buffer: Surface
    display: Surface
    depth: Surface
    hiz: Surface
    stencil: Surface
    scene_color: Surface
    aux_targets: List[Surface]
    post_targets: List[Surface]
    dyntex_targets: List[Surface]
    shadow_maps: List[Surface]
    shadow_depth: Optional[Surface]
    textures: List[MipmappedTexture]
    vertex_base: int
    vertex_blocks: int
    shader_base: int


def build_resources(
    app: AppProfile, scale: float, rng: np.random.Generator
) -> FrameResources:
    """Allocate all surfaces of one frame at the given scale."""
    space = AddressSpace()
    width = _scaled_px(app.width_px, scale)
    height = _scaled_px(app.height_px, scale)
    back_buffer = allocate_surface(space, "back_buffer", width, height)
    display = allocate_surface(space, "display", width, height)
    depth = allocate_surface(space, "depth", width, height)
    # One HiZ entry per 2x2-pixel quad (see raster.HIZ_TILES_PER_BLOCK_EDGE).
    hiz = allocate_surface(
        space, "hiz", max(4, width // 2), max(4, height // 2)
    )
    stencil = allocate_surface(space, "stencil", width, height, tile_px=8)
    scene_color = allocate_surface(space, "scene_color", width, height)
    aux_targets = [
        allocate_surface(space, f"aux{i}", width, height)
        for i in range(app.aux_targets)
    ]
    # Post-processing ping-pong targets run at half resolution (bloom,
    # blur and tone-mapping chains do in real engines), which makes their
    # producer->consumer distance short enough for online policies.
    post_targets = [
        allocate_surface(
            space, f"post{i}", max(16, width // 2), max(16, height // 2)
        )
        for i in range(2)
    ]
    dyntex_px = _scaled_px(app.dyntex_px, scale, minimum=16)
    dyntex_targets = [
        allocate_surface(space, f"dyntex{i}", dyntex_px, dyntex_px)
        for i in range(app.dyntex_count)
    ]
    shadow_px = _scaled_px(app.shadow_map_px, scale)
    shadow_maps = [
        allocate_surface(space, f"shadow{i}", shadow_px, shadow_px)
        for i in range(app.shadow_maps)
    ]
    shadow_depth = (
        allocate_surface(space, "shadow_depth", shadow_px, shadow_px)
        if app.shadow_maps
        else None
    )
    texture_px = _scaled_px(app.texture_px, scale)
    textures = [
        allocate_texture(space, f"texture{i}", texture_px, texture_px)
        for i in range(app.texture_count)
    ]
    vertex_blocks = max(64, int(app.vertex_buffer_blocks * scale * scale))
    vertex_base = space.allocate(vertex_blocks * 64)
    shader_base = space.allocate(SHADER_BLOCKS * 64)
    return FrameResources(
        space=space,
        back_buffer=back_buffer,
        display=display,
        depth=depth,
        hiz=hiz,
        stencil=stencil,
        scene_color=scene_color,
        aux_targets=aux_targets,
        post_targets=post_targets,
        dyntex_targets=dyntex_targets,
        shadow_maps=shadow_maps,
        shadow_depth=shadow_depth,
        textures=textures,
        vertex_base=vertex_base,
        vertex_blocks=vertex_blocks,
        shader_base=shader_base,
    )


def _random_region(
    target: Surface,
    area_fraction: float,
    rng: np.random.Generator,
    center: Optional[Tuple[float, float]] = None,
) -> Tuple[int, int, int, int]:
    """A random rectangle covering roughly ``area_fraction`` of a target.

    With ``center`` the rectangle lands near that (fractional) position —
    used to keep consecutive draws spatially coherent.
    """
    area_fraction = min(1.0, max(0.01, area_fraction))
    aspect = rng.uniform(0.6, 1.6)
    w = max(1, int(round(target.tiles_x * np.sqrt(area_fraction) * aspect)))
    h = max(1, int(round(target.tiles_y * np.sqrt(area_fraction) / aspect)))
    w = min(w, target.tiles_x)
    h = min(h, target.tiles_y)
    if center is None:
        x0 = int(rng.integers(0, target.tiles_x - w + 1))
        y0 = int(rng.integers(0, target.tiles_y - h + 1))
    else:
        x0 = int(round(center[0] * target.tiles_x - w / 2))
        y0 = int(round(center[1] * target.tiles_y - h / 2))
        x0 = max(0, min(x0, target.tiles_x - w))
        y0 = max(0, min(y0, target.tiles_y - h))
    return (x0, y0, x0 + w, y0 + h)


def _geometry_draws(
    app: AppProfile,
    resources: FrameResources,
    target: Surface,
    frame_index: int,
    rng: np.random.Generator,
    shadow_bindings: bool,
    area_scale: float = 1.0,
) -> Tuple[DrawCall, ...]:
    """The draw calls of one geometry (main or aux) pass."""
    draws: List[DrawCall] = []
    area_per_draw = area_scale * app.overdraw / app.draws_per_pass
    vertex_stride = max(
        1, resources.vertex_blocks // max(1, app.draws_per_pass * app.main_passes)
    )
    # Each dynamic source (shadow map, environment probe) is consumed by
    # only one or two draws: spreading it over many overlapping draws
    # would create short-distance re-reads the paper's frames do not
    # exhibit ("this particular type of inter-stream reuse is not
    # observed much", Section 2.1).
    dynamic_consumers: Dict[int, TextureBinding] = {}
    if shadow_bindings:
        sources: List[Surface] = []
        for shadow in resources.shadow_maps:
            if rng.random() < app.shadow_sample_probability:
                sources.append(shadow)
        for probe in resources.aux_targets:
            if rng.random() < 0.6:
                sources.append(probe)
        for source in sources:
            consumer = int(rng.integers(0, app.draws_per_pass))
            dynamic_consumers.setdefault(
                consumer,
                TextureBinding(source=source, screen_mapped=True, full_read=True),
            )
    # Consecutive draws are spatially coherent: a slow random walk over
    # the screen, with occasional exact revisits (decals, multi-material
    # objects).  This produces the short-distance Z/RT overlap that real
    # scenes have and random rectangles would not.
    walk_x, walk_y = float(rng.random()), float(rng.random())
    previous_region: Optional[Tuple[int, int, int, int]] = None
    # Blending comes in bursts: particle systems and transparency layers
    # draw several overlapping quads back to back onto one region, so
    # blend re-reads are immediate rather than spread across the pass.
    blend_burst = 0
    for draw_index in range(app.draws_per_pass):
        bindings: List[TextureBinding] = []
        # Primary material texture (Zipf-like popularity over textures).
        texture_index = min(
            len(resources.textures) - 1,
            int(rng.zipf(1.6)) - 1 if len(resources.textures) > 1 else 0,
        )
        # Texture reuse is bursty: a minority of draws use hot materials
        # (lightmaps, atlases) that recur across draws and passes, the
        # rest stream cold texels that die in E0 (Section 2.3).
        hot_draw = rng.random() < app.hot_draw_fraction
        bindings.append(
            TextureBinding(
                source=resources.textures[texture_index],
                samples_per_tile=app.samples_per_tile,
                # Most screen area is near-field geometry sampling the
                # base MIP level; small far levels mostly live in the
                # texture caches.
                lod=int(rng.choice([0, 0, 0, 0, 0, 0, 0, 1, 1, 2])),
                hot_probability=min(0.85, 1.2 * app.hot_probability)
                if hot_draw
                else 0.05,
                hot_fraction=app.hot_fraction,
            )
        )
        if draw_index in dynamic_consumers:
            bindings.append(dynamic_consumers[draw_index])
        walk_x = (walk_x + float(rng.normal(0.0, 0.12))) % 1.0
        walk_y = (walk_y + float(rng.normal(0.0, 0.12))) % 1.0
        if blend_burst > 0 and previous_region is not None:
            region = previous_region
            blend_burst -= 1
            blend = True
        else:
            blend = rng.random() < app.blend_fraction / 2
            if blend:
                blend_burst = 2
            if previous_region is not None and rng.random() < 0.3:
                region = previous_region
            else:
                region = _random_region(
                    target, area_per_draw, rng, center=(walk_x, walk_y)
                )
        previous_region = region
        draws.append(
            DrawCall(
                region=region,
                coverage=float(rng.uniform(0.6, 0.95)),
                textures=tuple(bindings),
                blend=blend,
                depth_test=True,
                depth_write=not blend,
                stencil_test=bool(rng.random() < app.stencil_fraction),
                vertex_blocks=vertex_stride,
                # Random per-draw phase: draws read independent texel
                # regions whose overlaps are unstructured; the per-frame
                # shift models camera movement.
                uv_phase=int(rng.integers(0, 1 << 14)) + frame_index * 257,
                vertex_phase=(draw_index * vertex_stride)
                % max(1, resources.vertex_blocks),
            )
        )
    return tuple(draws)


def _dyntex_pass(
    app: AppProfile,
    resources: FrameResources,
    target: Surface,
    rng: np.random.Generator,
) -> RenderPass:
    """Render a small dynamic texture (no depth, a couple of draws)."""
    draws = tuple(
        DrawCall(
            region=_random_region(target, 0.7, rng),
            coverage=float(rng.uniform(0.8, 1.0)),
            textures=(
                TextureBinding(
                    source=resources.textures[
                        int(rng.integers(0, len(resources.textures)))
                    ],
                    samples_per_tile=0.8,
                    lod=2,
                    hot_probability=0.3,
                    hot_fraction=app.hot_fraction,
                ),
            )
            if resources.textures
            else (),
            depth_test=False,
            depth_write=False,
            vertex_blocks=1,
        )
        for _ in range(2)
    )
    return RenderPass(name=f"dyntex:{target.name}", color_target=target, draws=draws)


def _post_chain(
    app: AppProfile, resources: FrameResources, rng: np.random.Generator
) -> Tuple[List[RenderPass], Surface]:
    """Post-processing ping-pong passes; returns them and the last output.

    The first pass downsamples the full-resolution scene color into a
    half-resolution target (reading *every* scene block — the
    long-distance render-to-texture consumption); the remaining passes
    ping-pong between the two half-resolution targets, whose short
    producer->consumer distance even plain SRRIP can capture.
    """
    passes: List[RenderPass] = []
    source = resources.scene_color
    for post_index in range(app.post_passes):
        destination = resources.post_targets[post_index % 2]
        if post_index == 0:
            # Downsampling: each destination tile averages a 2x2 group of
            # source tiles, so the whole scene color gets consumed.
            samples = 4.0
        else:
            samples = app.post_samples_per_tile
        bindings = [
            TextureBinding(
                source=source, samples_per_tile=samples, screen_mapped=True
            )
        ]
        if post_index == app.post_passes - 1 and app.post_passes > 1:
            # Composite effects (bloom etc.) re-read part of the scene.
            bindings.append(
                TextureBinding(
                    source=resources.scene_color,
                    samples_per_tile=0.5,
                    screen_mapped=True,
                )
            )
        passes.append(
            RenderPass(
                name=f"post{post_index}",
                color_target=destination,
                draws=(
                    DrawCall(
                        region=full_screen_region(destination),
                        textures=tuple(bindings),
                        depth_test=False,
                        depth_write=False,
                        vertex_blocks=1,
                    ),
                ),
            )
        )
        source = destination
    return passes, source


class _DyntexRotation:
    """Rotates through the small dynamic-texture targets of a frame."""

    def __init__(self, app: AppProfile, resources: FrameResources) -> None:
        self.app = app
        self.resources = resources
        self.cursor = 0

    def maybe_interleave(
        self, group: List[DrawCall], passes: List[RenderPass], rng: np.random.Generator
    ) -> List[DrawCall]:
        """Possibly render a dynamic texture and bind one draw to it."""
        app, resources = self.app, self.resources
        if not resources.dyntex_targets or rng.random() >= app.dyntex_probability:
            return group
        dyntex = resources.dyntex_targets[
            self.cursor % len(resources.dyntex_targets)
        ]
        self.cursor += 1
        passes.append(_dyntex_pass(app, resources, dyntex, rng))
        # Exactly one nearby draw consumes the fresh surface — repeated
        # consumption by overlapping draws would inject short-distance
        # texture re-reads the paper's traces do not show.
        consumer = int(rng.integers(0, len(group)))
        group = list(group)
        group[consumer] = dataclasses.replace(
            group[consumer],
            textures=group[consumer].textures
            + (TextureBinding(source=dyntex, screen_mapped=True, full_read=True),),
        )
        return group


def build_frame_passes(
    app: AppProfile,
    resources: FrameResources,
    frame_index: int,
    rng: np.random.Generator,
) -> List[RenderPass]:
    """The full pass list of one frame."""
    passes: List[RenderPass] = []
    dyntex = _DyntexRotation(app, resources)
    # 1. Auxiliary targets (reflection probes, environment views) render
    #    a reduced scene first; main-pass draws sample some of them at
    #    mid distance, the rest stay unconsumed and cap the potential
    #    render-target-to-texture consumption below 100%.  Dynamic
    #    texturing events run here too, so render-to-texture consumption
    #    flows from the very first windows of the frame.
    for aux_index, aux in enumerate(resources.aux_targets):
        aux_draws = list(
            _geometry_draws(
                app, resources, aux, frame_index, rng, False, area_scale=0.5
            )
        )
        half = max(1, len(aux_draws) // 2)
        for chunk_index, start in enumerate(range(0, len(aux_draws), half)):
            group = dyntex.maybe_interleave(
                aux_draws[start : start + half], passes, rng
            )
            passes.append(
                RenderPass(
                    name=f"aux{aux_index}.{chunk_index}",
                    color_target=aux,
                    depth_target=resources.depth,
                    hiz_target=resources.hiz,
                    draws=tuple(group),
                    early_z_reject=app.early_z_reject,
                    depth_pass_rate=0.5,
                )
            )
    # 2. Shadow maps, rendered right before the geometry that samples
    #    them: depth from the light view lands in a color surface that
    #    the main passes consume (render-to-texture shadows).
    for shadow_index, shadow in enumerate(resources.shadow_maps):
        draws = tuple(
            DrawCall(
                region=_random_region(shadow, 0.5, rng),
                coverage=float(rng.uniform(0.7, 1.0)),
                depth_test=True,
                depth_write=True,
                vertex_blocks=max(
                    1, resources.vertex_blocks // (8 * max(1, len(resources.shadow_maps)))
                ),
                vertex_phase=int(rng.integers(0, resources.vertex_blocks)),
            )
            for _ in range(app.shadow_draws)
        )
        passes.append(
            RenderPass(
                name=f"shadow{shadow_index}",
                color_target=shadow,
                depth_target=resources.shadow_depth,
                draws=draws,
                early_z_reject=0.1,
                depth_pass_rate=0.5,
            )
        )
    # 3. Main geometry passes into the scene color target, interleaved
    #    with small dynamic-texture productions (impostors, water copies)
    #    that nearby draws consume — render-to-texture reuse flows
    #    throughout the frame, not only at the post-processing tail.
    #
    #    Every main pass re-renders the *same* scene (depth pre-pass,
    #    opaque pass, transparent pass...), so the same texture and depth
    #    blocks recur cyclically with a period of one whole pass — the
    #    far-flung intra-stream reuse that thrashes recency-based
    #    policies but that a large well-managed LLC can capture.
    scene_draws = _geometry_draws(
        app, resources, resources.scene_color, frame_index, rng, True
    )
    for pass_index in range(app.main_passes):
        if pass_index == 0:
            draws = scene_draws
        else:
            # Replay most of the scene (later passes skip geometry that
            # is fully opaque-resolved): identical regions and textures;
            # depth was already resolved, so no further Z writes.
            draws = tuple(
                dataclasses.replace(draw, depth_write=False)
                for draw in scene_draws
                if rng.random() < 0.7
            )
            if not draws:
                continue
        chunk = max(3, len(draws) // 3)
        for chunk_index, start in enumerate(range(0, len(draws), chunk)):
            group = dyntex.maybe_interleave(
                list(draws[start : start + chunk]), passes, rng
            )
            passes.append(
                RenderPass(
                    name=f"main{pass_index}.{chunk_index}",
                    color_target=resources.scene_color,
                    depth_target=resources.depth,
                    hiz_target=resources.hiz,
                    stencil_target=resources.stencil
                    if app.stencil_fraction
                    else None,
                    draws=tuple(group),
                    early_z_reject=app.early_z_reject if pass_index else 0.15,
                    depth_pass_rate=0.35,
                )
            )
    # 4. Post-processing chain consuming the scene color.
    post_passes, post_output = _post_chain(app, resources, rng)
    passes.extend(post_passes)
    # 5. Final pass: composite into the back buffer (+ UI), then resolve
    #    the displayable color surface.
    final_bindings: List[TextureBinding] = [
        TextureBinding(source=post_output, samples_per_tile=1.0, screen_mapped=True)
    ]
    if resources.textures:
        final_bindings.append(
            TextureBinding(
                source=resources.textures[0],
                samples_per_tile=0.3,
                hot_probability=0.9,
                hot_fraction=0.1,
            )
        )
    passes.append(
        RenderPass(
            name="final",
            color_target=resources.back_buffer,
            draws=(
                DrawCall(
                    region=full_screen_region(resources.back_buffer),
                    textures=tuple(final_bindings),
                    blend=True,
                    depth_test=False,
                    depth_write=False,
                    vertex_blocks=1,
                ),
            ),
            resolve_to=resources.display,
        )
    )
    return passes


def render_front(
    meta: Dict[str, object], caches: Optional[RenderCachesConfig] = None
) -> RenderCacheFrontEnd:
    """The render caches a synthesized trace is rendered through.

    ``caches`` defaults to the Section 4 caches sized for
    ``meta["scale"]`` (paper scale when absent) by
    :func:`~repro.config.render_cache_factor`; the front end's
    ``trace()`` returns the LLC trace, carrying ``meta``.
    """
    if caches is None:
        caches = RenderCachesConfig().scaled(
            render_cache_factor(meta.get("scale", 1.0))
        )
    return RenderCacheFrontEnd(caches, TraceBuilder(meta))


def frame_prologue(
    app: AppProfile, frame_index: int, scale: float
) -> Tuple[
    np.random.Generator, FrameResources, List[RenderPass], Dict[str, object]
]:
    """One frame's seeded RNG, resources, pass list and base meta.

    :func:`generate_frame_trace` rasterizes these passes with the same
    RNG; :func:`~repro.workloads.replay.capture_frame_commands` records
    them as a command list.
    """
    if frame_index < 0:
        raise WorkloadError(f"frame index must be non-negative: {frame_index}")
    rng = np.random.default_rng((app.seed << 8) ^ frame_index)
    resources = build_resources(app, scale, rng)
    passes = build_frame_passes(app, resources, frame_index, rng)
    meta: Dict[str, object] = {
        "name": f"{app.abbrev}#f{frame_index}",
        "app": app.name,
        "abbrev": app.abbrev,
        "frame": frame_index,
        "scale": scale,
    }
    return rng, resources, passes, meta


def generate_frame_trace(
    app: AppProfile, frame_index: int = 0, scale: float = 0.125
) -> Trace:
    """Render one synthetic frame and return its LLC access trace."""
    rng, resources, passes, meta = frame_prologue(app, frame_index, scale)
    front = render_front(
        {
            **meta,
            "width_px": resources.back_buffer.width_px,
            "height_px": resources.back_buffer.height_px,
        }
    )
    for render_pass in passes:
        emit_pass(front, render_pass, rng, resources.vertex_base, resources.shader_base)
    return front.trace()
