"""Building a workload by hand with the pass/draw API.

Instead of using the twelve packaged application profiles, this example
constructs a minimal three-pass frame directly — render a scene, blur
it into a half-resolution target, composite — and shows how uncached
displayable color (UCD) and render-target protection interact.

Run:  python examples/render_to_texture.py
"""

import numpy as np

from repro import simulate_trace
from repro.config import KB, CacheParams, LLCConfig, RenderCachesConfig
from repro.workloads.framegen import render_front
from repro.workloads.passes import DrawCall, RenderPass, TextureBinding
from repro.workloads.raster import SHADER_BLOCKS, emit_pass
from repro.workloads.surfaces import AddressSpace, allocate_surface, allocate_texture


def build_frame_trace():
    space = AddressSpace()
    scene = allocate_surface(space, "scene", 256, 160)
    depth = allocate_surface(space, "depth", 256, 160)
    blur = allocate_surface(space, "blur", 128, 80)
    back = allocate_surface(space, "back", 256, 160)
    display = allocate_surface(space, "display", 256, 160)
    bricks = allocate_texture(space, "bricks", 256, 256)
    vertex_base = space.allocate(256 * 64)
    rng = np.random.default_rng(7)

    geometry_pass = RenderPass(
        name="geometry",
        color_target=scene,
        depth_target=depth,
        draws=tuple(
            DrawCall(
                region=(x, y, min(64, x + 24), min(40, y + 16)),
                coverage=0.9,
                textures=(
                    TextureBinding(
                        source=bricks, samples_per_tile=2.0, hot_probability=0.2
                    ),
                ),
                vertex_blocks=8,
                uv_phase=index * 997,
            )
            for index, (x, y) in enumerate(
                [(0, 0), (20, 8), (40, 16), (8, 24), (32, 4), (48, 20)]
            )
        ),
        early_z_reject=0.2,
    )
    blur_pass = RenderPass(
        name="blur",
        color_target=blur,
        draws=(
            DrawCall(
                region=(0, 0, blur.tiles_x, blur.tiles_y),
                textures=(
                    TextureBinding(
                        source=scene, samples_per_tile=4.0, screen_mapped=True
                    ),
                ),
                depth_test=False,
            ),
        ),
    )
    composite_pass = RenderPass(
        name="composite",
        color_target=back,
        draws=(
            DrawCall(
                region=(0, 0, back.tiles_x, back.tiles_y),
                textures=(
                    TextureBinding(
                        source=blur, samples_per_tile=1.0, screen_mapped=True
                    ),
                ),
                blend=True,
                depth_test=False,
            ),
        ),
        resolve_to=display,
    )

    shader_base = space.allocate(SHADER_BLOCKS * 64)
    front = render_front({"name": "hand-built"}, RenderCachesConfig().scaled(1 / 64))
    for render_pass in (geometry_pass, blur_pass, composite_pass):
        emit_pass(front, render_pass, rng, vertex_base, shader_base)
    return front.trace()


def main() -> None:
    trace = build_frame_trace()
    llc = LLCConfig(params=CacheParams(128 * KB, ways=16), banks=1,
                    sample_period=16)
    print(f"hand-built frame: {len(trace):,} LLC accesses\n")
    print(f"{'policy':12s} {'misses':>8s} {'RT->TEX':>8s}")
    for policy in ("drrip", "drrip+ucd", "gspztc", "gspc+ucd", "belady"):
        result = simulate_trace(trace, policy, llc)
        print(
            f"{result.policy:12s} {result.misses:8,d} "
            f"{result.stats.rt_consumption_rate:8.3f}"
        )


if __name__ == "__main__":
    main()
