"""GPU surfaces and their tiled address layouts.

Render targets, depth buffers and textures are stored *tiled*: a 64 B
cache block holds a 4x4 block of 32-bit pixels (or an 8x8 block of 8-bit
stencil values), the standard layout GPUs use so that a triangle's
screen-space footprint maps to a compact set of cache blocks.  The
address of tile (tx, ty) is a simple row-major function of the tile
coordinates, which lets the rasterizer compute block addresses for whole
coverage grids with vectorized numpy arithmetic.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.errors import WorkloadError

BLOCK_BYTES = 64
#: Surfaces are allocated on 4 KB page boundaries.
PAGE_BYTES = 4096


class AddressSpace:
    """A bump allocator for the GPU's flat physical address space."""

    def __init__(self, base: int = 1 << 32) -> None:
        # Starting high keeps workload addresses disjoint from the tiny
        # synthetic traces used in tests, which start at zero.
        self._next = base

    def allocate(self, size_bytes: int) -> int:
        """Reserve ``size_bytes`` and return the page-aligned base."""
        if size_bytes <= 0:
            raise WorkloadError(f"allocation size must be positive: {size_bytes}")
        base = self._next
        pages = -(-size_bytes // PAGE_BYTES)
        self._next += pages * PAGE_BYTES
        return base


@dataclasses.dataclass(frozen=True)
class Surface:
    """A 2D tiled surface (render target, depth, stencil, or texture mip).

    ``tile_px`` is the pixel width/height covered by one 64 B block:
    4 for 32-bit formats, 8 for 8-bit formats.
    """

    name: str
    base: int
    width_px: int
    height_px: int
    tile_px: int = 4

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise WorkloadError(f"surface {self.name!r} has empty extent")

    @property
    def tiles_x(self) -> int:
        return -(-self.width_px // self.tile_px)

    @property
    def tiles_y(self) -> int:
        return -(-self.height_px // self.tile_px)

    @property
    def num_blocks(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * BLOCK_BYTES

    def block_address(self, tile_x: int, tile_y: int) -> int:
        """Byte address of the block holding tile (tile_x, tile_y)."""
        if not (0 <= tile_x < self.tiles_x and 0 <= tile_y < self.tiles_y):
            raise WorkloadError(
                f"tile ({tile_x}, {tile_y}) outside surface {self.name!r}"
            )
        return self.base + (tile_y * self.tiles_x + tile_x) * BLOCK_BYTES

    def block_addresses(self, tiles_x: np.ndarray, tiles_y: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`block_address` (inputs are clipped in-range)."""
        tx = np.minimum(np.maximum(tiles_x.astype(np.int64), 0), self.tiles_x - 1)
        ty = np.minimum(np.maximum(tiles_y.astype(np.int64), 0), self.tiles_y - 1)
        return (self.base + (ty * self.tiles_x + tx) * BLOCK_BYTES).astype(np.uint64)

    def linear_blocks(self, start: int, count: int) -> np.ndarray:
        """``count`` consecutive block addresses starting at block ``start``
        (wrapping around the surface)."""
        indices = (start + np.arange(count, dtype=np.int64)) % self.num_blocks
        return (self.base + indices * BLOCK_BYTES).astype(np.uint64)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size_bytes


@dataclasses.dataclass(frozen=True)
class MipmappedTexture:
    """A MIP pyramid: one :class:`Surface` per level, halving each step."""

    name: str
    levels: List[Surface]

    @property
    def base_level(self) -> Surface:
        return self.levels[0]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def total_blocks(self) -> int:
        return sum(level.num_blocks for level in self.levels)

    def level(self, lod: int) -> Surface:
        return self.levels[min(max(lod, 0), self.num_levels - 1)]


def allocate_surface(
    space: AddressSpace,
    name: str,
    width_px: int,
    height_px: int,
    tile_px: int = 4,
) -> Surface:
    surface = Surface(
        name=name, base=0, width_px=width_px, height_px=height_px, tile_px=tile_px
    )
    base = space.allocate(surface.num_blocks * BLOCK_BYTES)
    return dataclasses.replace(surface, base=base)


def allocate_texture(
    space: AddressSpace,
    name: str,
    width_px: int,
    height_px: int,
    max_levels: int = 8,
) -> MipmappedTexture:
    """Allocate a texture with a full MIP chain down to one tile."""
    levels: List[Surface] = []
    w, h = width_px, height_px
    for lod in range(max_levels):
        levels.append(allocate_surface(space, f"{name}.mip{lod}", w, h))
        if w <= 4 and h <= 4:
            break
        w = max(4, w // 2)
        h = max(4, h // 2)
    return MipmappedTexture(name=name, levels=levels)
