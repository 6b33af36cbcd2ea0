"""Frame-coherence workload family.

Anglada et al.'s Dynamic Sampling Rate observation (PAPERS.md) is that
consecutive frames of a real-time rendering workload are highly
similar: the camera moves a little, a few objects animate, and the
bulk of each frame re-renders the same geometry into the same surfaces
with the same textures.  The paper evaluates 52 *discrete* frames, so
its policies never face (or exploit) that temporal axis.

:class:`CoherentProfile` turns the inter-frame similarity into a
measurable knob.  Every frame of one profile renders the *same*
resource allocation (surfaces, textures, vertex buffers are rebuilt
bit-identically from the profile seed) and starts from the *same* base
draw list; a per-frame perturbation pass then models scene motion:

* ``similarity`` — probability that a draw survives a frame transition
  untouched (its covered region, texture phase, and rasterization are
  byte-identical across frames).
* ``delta_fraction`` — of the draws that *do* change, the fraction that
  is fully re-randomized (new screen region, fresh texel working set:
  objects entering/leaving the view) rather than merely jittered by a
  small camera pan.
* ``order_jitter`` — attempted adjacent draw swaps per pass (draw-order
  perturbation from state sorting / visibility changes), each applied
  with probability ``1 - similarity``.

Perturbations preserve every draw's covered-rectangle *size*, so the
rasterizer consumes its RNG stream identically for touched and
untouched draws alike — an unperturbed draw produces byte-identical
accesses in every frame, which is what makes the similarity knob
trustworthy instead of drowned in generator noise.

Frames are independently generatable (``frame_trace(workload, k)`` for
any ``k`` without rendering frames ``0..k-1``), so the family drops
into the existing per-frame trace cache, sweep DAG, and both replay
engines unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.trace.record import Trace
from repro.workloads.apps import app_by_name
from repro.workloads.framegen import build_frame_passes, build_resources, render_front
from repro.workloads.passes import DrawCall, RenderPass
from repro.workloads.raster import emit_pass


@dataclasses.dataclass(frozen=True)
class CoherentProfile:
    """A sequence of consecutive, controllably similar frames."""

    name: str
    abbrev: str
    #: Table 1 application whose renderer parameterization is reused.
    base_app: str
    num_frames: int
    seed: int
    #: Probability a draw survives a frame transition untouched.
    similarity: float = 0.85
    #: Fraction of touched draws fully re-randomized (vs jittered).
    delta_fraction: float = 0.5
    #: Attempted adjacent draw swaps per pass (draw-order perturbation).
    order_jitter: int = 2

    family: ClassVar[str] = "coherent"

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise WorkloadError(f"{self.name}: needs at least one frame")
        if not 0.0 <= self.similarity <= 1.0:
            raise WorkloadError(f"{self.name}: similarity must be in [0, 1]")
        if not 0.0 <= self.delta_fraction <= 1.0:
            raise WorkloadError(
                f"{self.name}: delta_fraction must be in [0, 1]"
            )
        if self.order_jitter < 0:
            raise WorkloadError(f"{self.name}: order_jitter must be >= 0")

    # -- generation -----------------------------------------------------------

    def _perturb_pass(
        self, render_pass: RenderPass, rng: np.random.Generator
    ) -> RenderPass:
        """Apply one frame's scene motion to one pass.

        Only draw *positions* and texture *phases* change — never the
        covered-rectangle size — so the rasterizer's data-dependent RNG
        consumption stays aligned across frames (see module docstring).
        """
        draws: List[DrawCall] = list(render_pass.draws)
        target = render_pass.color_target
        for _ in range(self.order_jitter):
            if len(draws) > 1 and rng.random() >= self.similarity:
                at = int(rng.integers(0, len(draws) - 1))
                draws[at], draws[at + 1] = draws[at + 1], draws[at]
        for index, draw in enumerate(draws):
            if rng.random() < self.similarity:
                continue
            x0, y0, x1, y1 = draw.region
            width, height = x1 - x0, y1 - y0
            max_x = max(0, target.tiles_x - width)
            max_y = max(0, target.tiles_y - height)
            if rng.random() < self.delta_fraction:
                # Fresh content: new region, new texel working set.
                new_x = int(rng.integers(0, max_x + 1))
                new_y = int(rng.integers(0, max_y + 1))
                phase = int(rng.integers(0, 1 << 14))
            else:
                # Camera pan: small spatial and texel-phase drift.
                new_x = min(max(0, x0 + int(rng.integers(-2, 3))), max_x)
                new_y = min(max(0, y0 + int(rng.integers(-2, 3))), max_y)
                phase = draw.uv_phase + int(rng.integers(1, 64))
            draws[index] = dataclasses.replace(
                draw,
                region=(new_x, new_y, new_x + width, new_y + height),
                uv_phase=phase,
            )
        return dataclasses.replace(render_pass, draws=tuple(draws))

    def base_passes(self, scale: float) -> Tuple[list, "object"]:
        """The frame-independent pass list and resources."""
        app = app_by_name(self.base_app)
        base_rng = np.random.default_rng(self.seed << 8)
        resources = build_resources(app, scale, base_rng)
        passes = build_frame_passes(app, resources, 0, base_rng)
        return passes, resources

    def generate(self, frame_index: int, scale: float) -> Trace:
        """Render one frame of the coherent sequence."""
        if frame_index < 0:
            raise WorkloadError(
                f"frame index must be non-negative: {frame_index}"
            )
        passes, resources = self.base_passes(scale)
        frame_rng = np.random.default_rng(
            (self.seed << 8) ^ (0x5EED + 2654435761 * (frame_index + 1))
        )
        passes = [self._perturb_pass(p, frame_rng) for p in passes]
        front = render_front(
            {
                "name": f"{self.abbrev}#f{frame_index}",
                "app": self.name,
                "abbrev": self.abbrev,
                "family": self.family,
                "base_app": self.base_app,
                "frame": frame_index,
                "scale": scale,
                "similarity": self.similarity,
                "delta_fraction": self.delta_fraction,
            }
        )
        for pass_index, render_pass in enumerate(passes):
            # One RNG per pass, seeded frame-independently: unperturbed
            # passes rasterize byte-identically in every frame.
            emit_rng = np.random.default_rng(
                (self.seed << 16) ^ (7919 * pass_index + 1)
            )
            emit_pass(
                front, render_pass, emit_rng, resources.vertex_base, resources.shader_base
            )
        return front.trace()


def inter_frame_overlap(
    profile: CoherentProfile, scale: float, frame_a: int = 0, frame_b: int = 1
) -> float:
    """Fraction of frame ``a``'s touched blocks also touched by ``b``.

    The characterization benchmark uses this to demonstrate that the
    similarity knob actually moves temporal reuse: ``coh-hi`` overlaps
    far more than ``coh-lo`` at the same scale.
    """
    blocks_a = np.unique(profile.generate(frame_a, scale).block_addresses())
    blocks_b = np.unique(profile.generate(frame_b, scale).block_addresses())
    if blocks_a.size == 0:
        return 0.0
    return float(np.isin(blocks_a, blocks_b).mean())
