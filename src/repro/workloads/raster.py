"""The tile rasterizer: turns draw calls into memory accesses.

Rasterization is approximated at 4x4-pixel tile granularity, the unit of
one 64 B cache block.  For each draw call the covered tiles are visited
in screen (row-major) order in small batches; each batch issues the
accesses a real pipeline would interleave: vertex fetches, HiZ test
reads, Z reads/writes, stencil tests, texture samples, and render-target
blends/writes.  All addresses are computed with vectorized numpy and
pushed through the :class:`~repro.cache.hierarchy.RenderCacheFrontEnd`,
whose misses form the LLC trace.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.streams import Stream
from repro.workloads.passes import DrawCall, RenderPass, TextureBinding, clip_region
from repro.workloads.surfaces import BLOCK_BYTES, Surface

#: Tiles per emission batch — large enough to amortize numpy overhead,
#: small enough that streams stay interleaved as in a real pipeline.
BATCH_TILES = 256

#: One HiZ entry holds the min/max depth of a 2x2-pixel quad; a 64 B
#: block covers a 2x2 group of color tiles.
HIZ_TILES_PER_BLOCK_EDGE = 2

#: Blocks of shader code/constants shared by a frame's draws.
SHADER_BLOCKS = 64

#: Shader code/constant reads issued per draw call (the OTHER stream).
SHADER_READS_PER_DRAW = 3

#: Exponent of the power-law popularity inside a texture's hot set.
HOT_SKEW = 3.0


def covered_tiles(
    draw: DrawCall, target: Surface, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major (x, y) tile coordinates covered by a draw call."""
    x0, y0, x1, y1 = clip_region(draw.region, target)
    if x1 <= x0 or y1 <= y0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    xs = np.tile(np.arange(x0, x1), y1 - y0)
    ys = np.repeat(np.arange(y0, y1), x1 - x0)
    if draw.coverage < 1.0:
        mask = rng.random(xs.size) < draw.coverage
        xs, ys = xs[mask], ys[mask]
    return xs, ys


def _static_sample_addresses(
    binding: TextureBinding,
    xs: np.ndarray,
    ys: np.ndarray,
    draw: DrawCall,
    rng: np.random.Generator,
) -> np.ndarray:
    """Texel-block addresses for a static (MIP-mapped) texture.

    Samples are a mixture of a *hot set* (popular texels reused across
    draws and passes: lightmaps, atlases, UI) and a *cold sweep* (an
    affine screen-to-UV mapping that walks fresh texels as the camera
    moves), reproducing the skewed texture reuse of Section 2.3: most
    texture blocks die in E0, but blocks that survive to E2 keep being
    reused.
    """
    level = binding.source.level(binding.lod)
    blocks = level.num_blocks
    if xs.size == 0:
        return np.empty(0, np.uint64)
    # Multi-texturing reads *different* texture layers (albedo, normal,
    # specular...), each its own region of the atlas: replicate the
    # covered tiles once per layer with a large per-layer offset, so
    # multi-sampling never produces duplicate block reads by itself.
    layers = max(1, math.ceil(binding.samples_per_tile))
    keep_probability = binding.samples_per_tile / layers
    x0, y0, x1, _y1 = draw.region
    rect_width = max(1, x1 - x0)
    # Spread draw phases proportionally around each MIP level so that
    # small levels do not alias every draw onto the same texel region.
    uv_phase = (draw.uv_phase * blocks) >> 14
    parts = []
    for layer in range(layers):
        tx, ty = xs, ys
        if keep_probability < 1.0:
            mask = rng.random(xs.size) < keep_probability
            tx, ty = xs[mask], ys[mask]
        if tx.size == 0:
            continue
        # Dense screen-to-UV map: the draw's rectangle packs into a
        # compact texel region starting at uv_phase, so a draw's texture
        # footprint matches its covered area and different draws read
        # disjoint regions (until the texture wraps — far-flung reuse).
        linear = (
            (tx - x0)
            + (ty - y0) * rect_width
            + uv_phase
            + layer * 7919
            + rng.integers(0, 2, tx.size)
        ) % blocks
        hot = rng.random(tx.size) < binding.hot_probability
        hot_count = np.count_nonzero(hot)
        if hot_count:
            hot_blocks = max(1, int(blocks * binding.hot_fraction))
            # Power-law popularity inside the hot set: most hot blocks
            # recur a few times far apart (E1 lives), a small head recurs
            # constantly (the long-lived E>=2 blocks of Figure 7).
            skewed = rng.random(hot_count) ** HOT_SKEW
            linear[hot] = (skewed * hot_blocks).astype(np.int64)
        parts.append(linear)
    if not parts:
        return np.empty(0, np.uint64)
    linear = np.concatenate(parts)
    return (level.base + linear * BLOCK_BYTES).astype(np.uint64)


def _dynamic_sample_addresses(
    binding: TextureBinding,
    xs: np.ndarray,
    ys: np.ndarray,
    target: Surface,
    rng: np.random.Generator,
) -> np.ndarray:
    """Texel-block addresses for a dynamic texture (a rendered surface).

    Post-processing and render-to-texture consumers map screen tiles to
    source tiles with a separable scale (identity for same-size
    surfaces), so the consumed blocks are exactly the blocks the
    producing pass wrote — the inter-stream reuse of Figure 6.
    """
    source: Surface = binding.source
    if xs.size == 0:
        return np.empty(0, np.uint64)
    sx = source.tiles_x / max(1, target.tiles_x)
    sy = source.tiles_y / max(1, target.tiles_y)
    # Multi-sample consumers (downsampling reads a 2x2 source group,
    # blur kernels read neighbours) visit *adjacent distinct* source
    # blocks, never the same block twice per destination tile.
    layers = max(1, int(np.ceil(binding.samples_per_tile)))
    keep_probability = binding.samples_per_tile / layers
    parts = []
    for layer in range(layers):
        tx, ty = xs, ys
        if keep_probability < 1.0:
            mask = rng.random(xs.size) < keep_probability
            tx, ty = xs[mask], ys[mask]
        if tx.size == 0:
            continue
        dx, dy = layer & 1, (layer >> 1) & 1
        src_x = (tx * sx).astype(np.int64) + dx
        src_y = (ty * sy).astype(np.int64) + dy
        parts.append(source.block_addresses(src_x, src_y))
    if not parts:
        return np.empty(0, np.uint64)
    return np.concatenate(parts)


def emit_draw(
    front: RenderCacheFrontEnd,
    render_pass: RenderPass,
    draw: DrawCall,
    rng: np.random.Generator,
    vertex_base: int,
    shader_base: int,
) -> None:
    """Generate all memory accesses of one draw call."""
    target = render_pass.color_target
    xs, ys = covered_tiles(draw, target, rng)
    if xs.size == 0:
        return
    # Input assembler: sequential vertex/index fetches for this draw.
    if draw.vertex_blocks:
        vertex_addresses = (
            vertex_base
            + (
                (draw.vertex_phase + np.arange(draw.vertex_blocks, dtype=np.int64))
                * BLOCK_BYTES
            )
        ).astype(np.uint64)
        front.access_blocks(vertex_addresses, Stream.VERTEX)
    # Shader code / constants for this draw's pipeline state.
    shader_addresses = (
        shader_base
        + rng.integers(0, SHADER_BLOCKS, size=SHADER_READS_PER_DRAW) * BLOCK_BYTES
    ).astype(np.uint64)
    front.access_blocks(shader_addresses, Stream.OTHER)

    depth = render_pass.depth_target
    hiz = render_pass.hiz_target
    stencil = render_pass.stencil_target

    for start in range(0, xs.size, BATCH_TILES):
        bx = xs[start : start + BATCH_TILES]
        by = ys[start : start + BATCH_TILES]
        survivors_x, survivors_y = bx, by
        if draw.depth_test and depth is not None:
            if hiz is not None:
                hiz_addresses = _hiz_addresses(hiz, bx, by)
                front.access_blocks(hiz_addresses, Stream.HIZ)
            if render_pass.early_z_reject > 0.0:
                keep = rng.random(bx.size) >= render_pass.early_z_reject
                survivors_x, survivors_y = bx[keep], by[keep]
            if survivors_x.size:
                z_addresses = depth.block_addresses(survivors_x, survivors_y)
                front.access_blocks(z_addresses, Stream.Z)
                if draw.depth_write:
                    passed = rng.random(survivors_x.size) < render_pass.depth_pass_rate
                    if passed.any():
                        front.access_blocks(
                            z_addresses[passed], Stream.Z, is_write=True
                        )
                        if hiz is not None:
                            # Passing depth writes update the HiZ summary.
                            front.access_blocks(
                                _hiz_addresses(
                                    hiz, survivors_x[passed], survivors_y[passed]
                                ),
                                Stream.HIZ,
                                is_write=True,
                            )
        if survivors_x.size == 0:
            continue
        if draw.stencil_test and stencil is not None:
            stencil_addresses = stencil.block_addresses(
                survivors_x // 2, survivors_y // 2
            )
            front.access_blocks(stencil_addresses, Stream.STENCIL)
        for binding in draw.textures:
            if binding.is_dynamic and binding.full_read:
                continue  # consumed whole, once, after the batch loop
            if binding.is_dynamic:
                sample_addresses = _dynamic_sample_addresses(
                    binding, survivors_x, survivors_y, target, rng
                )
            else:
                sample_addresses = _static_sample_addresses(
                    binding, survivors_x, survivors_y, draw, rng
                )
            if sample_addresses.size:
                front.access_blocks(sample_addresses, Stream.TEXTURE)
        rt_addresses = target.block_addresses(survivors_x, survivors_y)
        if draw.blend:
            front.access_blocks(rt_addresses, Stream.RT)
        front.access_blocks(rt_addresses, Stream.RT, is_write=True)

    for binding in draw.textures:
        if binding.is_dynamic and binding.full_read:
            source: Surface = binding.source
            front.access_blocks(
                source.linear_blocks(0, source.num_blocks), Stream.TEXTURE
            )


def _hiz_addresses(hiz: Surface, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return hiz.block_addresses(
        xs // HIZ_TILES_PER_BLOCK_EDGE, ys // HIZ_TILES_PER_BLOCK_EDGE
    )


def emit_pass(
    front: RenderCacheFrontEnd,
    render_pass: RenderPass,
    rng: np.random.Generator,
    vertex_base: int,
    shader_base: int,
) -> None:
    """Generate all memory accesses of one render pass."""
    for draw in render_pass.draws:
        emit_draw(front, render_pass, draw, rng, vertex_base, shader_base)
    if render_pass.resolve_to is not None:
        # The final displayable color values, written once and never
        # reused (Section 2.2) — the stream the UCD variants bypass.
        display = render_pass.resolve_to
        front.access_blocks(
            display.linear_blocks(0, display.num_blocks),
            Stream.DISPLAY,
            is_write=True,
        )
