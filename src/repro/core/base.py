"""Replacement-policy interface.

The LLC engine (:mod:`repro.cache.llc`) drives a policy through five
hooks: victim selection, hit, fill, eviction, and an optional bypass
veto.  Policies keep their own per-block metadata, allocated when the
engine binds them to a :class:`~repro.cache.geometry.CacheGeometry`; the
engine owns tags, validity, dirty bits and statistics.

``AccessContext`` is a single mutable object reused for every access —
policies must read what they need inside the hook and never retain a
reference across accesses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # geometry is only referenced in annotations; a
    # runtime import would be circular (cache.llc imports this module).
    from repro.cache.geometry import CacheGeometry

#: "Never referenced again" marker for next-use indices (Belady).
NEVER = 1 << 62


class AccessContext:
    """Per-access information passed to every policy hook."""

    __slots__ = (
        "index",
        "address",
        "block",
        "set_index",
        "bank",
        "is_sample",
        "stream",
        "sclass",
        "is_write",
        "next_use",
    )

    def __init__(self) -> None:
        self.index = 0          #: position of this access in the trace
        self.address = 0        #: byte address
        self.block = 0          #: block address (byte address >> block bits)
        self.set_index = 0
        self.bank = 0
        self.is_sample = False  #: True in the dedicated SRRIP sample sets
        self.stream = 0         #: int(repro.streams.Stream)
        self.sclass = 0         #: int(repro.streams.StreamClass)
        self.is_write = False
        self.next_use = NEVER   #: next access index of this block, or NEVER


class ReplacementPolicy:
    """Base class for all LLC replacement policies."""

    #: Registry name; subclasses override.
    name = "abstract"
    #: True if the policy needs ``ctx.next_use`` (Belady's OPT).  The
    #: offline simulator precomputes next-use indices only when asked.
    needs_future = False

    def __init__(self) -> None:
        self.geometry: Optional["CacheGeometry"] = None

    # -- lifecycle -----------------------------------------------------

    def bind(self, geometry: CacheGeometry) -> None:
        """Allocate per-block metadata for ``geometry``.

        Subclasses must call ``super().bind(geometry)`` first.
        """
        self.geometry = geometry

    # -- hooks (hot path) ------------------------------------------------

    def should_bypass(self, ctx: AccessContext) -> bool:
        """Veto the fill of a missing block (never called for hits)."""
        return False

    def select_victim(self, ctx: AccessContext) -> int:
        """Choose a way to evict in ``ctx.set_index`` (all ways valid)."""
        raise NotImplementedError

    def on_hit(self, ctx: AccessContext, way: int) -> None:
        """The access hit way ``way``."""
        raise NotImplementedError

    def on_fill(self, ctx: AccessContext, way: int) -> None:
        """The missing block was installed in way ``way``."""
        raise NotImplementedError

    def on_evict(self, ctx: AccessContext, way: int) -> None:
        """Way ``way`` is being evicted (before the new block lands)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
