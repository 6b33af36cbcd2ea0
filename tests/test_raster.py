"""Rasterizer tests: draw calls -> access streams."""

import numpy as np
import pytest

from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.config import RenderCachesConfig
from repro.streams import Stream
from repro.workloads.passes import DrawCall, RenderPass, TextureBinding
from repro.workloads.raster import covered_tiles, emit_draw, emit_pass
from repro.workloads.surfaces import AddressSpace, allocate_surface, allocate_texture


@pytest.fixture
def resources():
    space = AddressSpace()
    color = allocate_surface(space, "color", 64, 64)
    depth = allocate_surface(space, "depth", 64, 64)
    hiz = allocate_surface(space, "hiz", 32, 32)
    texture = allocate_texture(space, "tex", 64, 64)
    vertex_base = space.allocate(64 * 64)
    shader_base = space.allocate(64 * 64)
    return space, color, depth, hiz, texture, vertex_base, shader_base


def _emit(render_pass, draw, resources, seed=0):
    _, _, _, _, _, vertex_base, shader_base = resources
    front = RenderCacheFrontEnd(RenderCachesConfig().scaled(1 / 256))
    emit_draw(
        front,
        render_pass,
        draw,
        np.random.default_rng(seed),
        vertex_base,
        shader_base,
    )
    return front.sink.build()


def test_covered_tiles_full_rect():
    space = AddressSpace()
    surface = allocate_surface(space, "s", 64, 64)
    draw = DrawCall(region=(0, 0, 4, 4), coverage=1.0)
    xs, ys = covered_tiles(draw, surface, np.random.default_rng(0))
    assert xs.size == 16
    assert xs.min() == 0 and xs.max() == 3


def test_covered_tiles_respects_coverage():
    space = AddressSpace()
    surface = allocate_surface(space, "s", 256, 256)
    draw = DrawCall(region=(0, 0, 64, 64), coverage=0.5)
    xs, _ = covered_tiles(draw, surface, np.random.default_rng(0))
    assert 0.35 * 4096 < xs.size < 0.65 * 4096


def test_empty_region_emits_nothing(resources):
    _, color, depth, hiz, _, _, _ = resources
    render_pass = RenderPass("p", color, depth_target=depth, hiz_target=hiz)
    draw = DrawCall(region=(5, 5, 5, 9))
    trace = _emit(render_pass, draw, resources)
    assert len(trace) == 0


def test_draw_emits_expected_streams(resources):
    _, color, depth, hiz, texture, _, _ = resources
    render_pass = RenderPass("p", color, depth_target=depth, hiz_target=hiz)
    draw = DrawCall(
        region=(0, 0, 8, 8),
        textures=(TextureBinding(source=texture, samples_per_tile=1.0),),
        vertex_blocks=4,
    )
    trace = _emit(render_pass, draw, resources)
    present = {Stream(int(s)) for s in set(trace.streams.tolist())}
    assert {Stream.VERTEX, Stream.OTHER, Stream.HIZ, Stream.Z,
            Stream.TEXTURE, Stream.RT} <= present


def test_rt_writes_target_surface(resources):
    _, color, depth, hiz, _, _, _ = resources
    render_pass = RenderPass("p", color, depth_target=depth, hiz_target=hiz)
    draw = DrawCall(region=(0, 0, 4, 4))
    trace = _emit(render_pass, draw, resources)
    rt_mask = trace.stream_mask(Stream.RT)
    for address in trace.addresses[rt_mask].tolist():
        assert color.contains(address)


def test_no_depth_pass_skips_z(resources):
    _, color, _, _, _, _, _ = resources
    render_pass = RenderPass("p", color)  # no depth target
    draw = DrawCall(region=(0, 0, 4, 4))
    trace = _emit(render_pass, draw, resources)
    assert int(trace.stream_mask(Stream.Z).sum()) == 0
    assert int(trace.stream_mask(Stream.HIZ).sum()) == 0


def test_early_z_reject_reduces_work(resources):
    _, color, depth, hiz, _, _, _ = resources
    lenient = RenderPass("p", color, depth_target=depth, early_z_reject=0.0)
    harsh = RenderPass("p", color, depth_target=depth, early_z_reject=0.9)
    draw = DrawCall(region=(0, 0, 16, 16))
    full = _emit(lenient, draw, resources)
    culled = _emit(harsh, draw, resources)
    assert int(culled.stream_mask(Stream.RT).sum()) < int(
        full.stream_mask(Stream.RT).sum()
    )


def test_full_read_binding_consumes_whole_source(resources):
    space, color, _, _, _, _, _ = resources
    dyntex = allocate_surface(space, "dyn", 16, 16)  # 16 blocks
    render_pass = RenderPass("p", color)
    draw = DrawCall(
        region=(0, 0, 2, 2),
        textures=(
            TextureBinding(source=dyntex, screen_mapped=True, full_read=True),
        ),
    )
    trace = _emit(render_pass, draw, resources)
    tex_addresses = set(
        trace.addresses[trace.stream_mask(Stream.TEXTURE)].tolist()
    )
    expected = {dyntex.base + i * 64 for i in range(dyntex.num_blocks)}
    assert tex_addresses == expected


def test_screen_mapped_identity_reads_matching_blocks(resources):
    space, color, _, _, _, _, _ = resources
    source = allocate_surface(space, "src", 64, 64)  # same size as target
    render_pass = RenderPass("p", color)
    draw = DrawCall(
        region=(0, 0, 16, 16),
        textures=(
            TextureBinding(
                source=source, samples_per_tile=1.0, screen_mapped=True
            ),
        ),
    )
    trace = _emit(render_pass, draw, resources)
    tex = trace.addresses[trace.stream_mask(Stream.TEXTURE)]
    offsets = {int(a) - source.base for a in tex.tolist()}
    rt = trace.addresses[trace.stream_mask(Stream.RT)]
    rt_offsets = {int(a) - color.base for a in rt.tolist()}
    assert offsets == rt_offsets  # identity mapping


def test_resolve_emits_display_writes(resources):
    _, color, _, _, _, vertex_base, shader_base = resources
    space = AddressSpace(base=1 << 40)
    display = allocate_surface(space, "display", 64, 64)
    render_pass = RenderPass(
        "final",
        color,
        draws=(DrawCall(region=(0, 0, 4, 4)),),
        resolve_to=display,
    )
    front = RenderCacheFrontEnd(RenderCachesConfig().scaled(1 / 256))
    emit_pass(front, render_pass, np.random.default_rng(0), vertex_base, shader_base)
    trace = front.sink.build()
    display_mask = trace.stream_mask(Stream.DISPLAY)
    assert int(display_mask.sum()) == display.num_blocks
    assert trace.writes[display_mask].all()


def test_deterministic_for_same_seed(resources):
    _, color, depth, hiz, texture, _, _ = resources
    render_pass = RenderPass("p", color, depth_target=depth, hiz_target=hiz,
                             early_z_reject=0.3)
    draw = DrawCall(
        region=(0, 0, 8, 8),
        coverage=0.8,
        textures=(TextureBinding(source=texture, samples_per_tile=1.5),),
    )
    a = _emit(render_pass, draw, resources, seed=5)
    b = _emit(render_pass, draw, resources, seed=5)
    assert np.array_equal(a.addresses, b.addresses)
    assert np.array_equal(a.streams, b.streams)
