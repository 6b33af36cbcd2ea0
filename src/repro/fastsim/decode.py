"""Trace pre-decoding for the fast replay kernels.

One vectorized pass turns a :class:`~repro.trace.record.Trace` into the
flat Python lists the kernels iterate: block addresses, set indices,
stream classes, write flags, and, for the kernels that read them,
next-use indices (Belady), banks and sample-set flags (the GSPC family)
and signature-table indices (SHiP-mem).
Statically uncached streams are filtered out of the replay arrays
entirely — a vectorized table lookup replaces the reference engine's
per-access bypass branch — so the kernels never see them; ``kept`` maps
replay positions back to the trace, whose other positions the engine
records as ``BYPASS``.

Next-use indices are computed on the *full* trace before the uncached
filter, exactly like the reference simulator: a bypassed access still
counts as a future use of its block there (it never does in practice —
uncached streams touch disjoint surfaces — but equivalence is
byte-for-byte, not approximate).
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.core.ship import REGION_BITS, REGION_SHIFT, TABLE_ENTRIES
from repro.sim.future import next_use_indices
from repro.streams import STREAM_CLASS_TABLE, Stream
from repro.trace.record import Trace

_NUM_STREAMS = len(Stream)
_CLASS_TABLE = np.array(STREAM_CLASS_TABLE, dtype=np.uint8)


@dataclasses.dataclass
class DecodedTrace:
    """Replay-ready arrays of the accesses the kernel replays."""

    blocks: List[int]
    #: Base slot of each access's set (``set_index * ways``), so the
    #: kernels index per-set state without a per-access multiply.
    bases: List[int]
    sclasses: List[int]
    writes: List[bool]
    #: Next-use index per replayed access (``None`` unless Belady).
    next_uses: Optional[List[int]]
    #: Bank and sample-set flag of each access's set (``None`` unless
    #: the kernel needs them — the GSPC family's counter plumbing).
    banks: Optional[List[int]]
    samples: Optional[List[bool]]
    #: SHiP-mem's signature-history table index of each access, flat
    #: over the banks (``None`` unless the kernel needs it).
    signatures: Optional[List[int]]
    #: Trace position of each replayed access (``None`` when nothing
    #: was filtered, so replay positions are trace positions).
    kept: Optional[np.ndarray] = None


def decode_trace(
    trace: Trace,
    geometry: CacheGeometry,
    uncached: FrozenSet[Stream] = frozenset(),
    needs_future: bool = False,
    needs_bank: bool = False,
    needs_signature: bool = False,
) -> DecodedTrace:
    """Pre-decode ``trace`` for replay under ``geometry``."""
    blocks = trace.block_addresses(geometry.block_bytes)
    streams = trace.streams
    writes = trace.writes
    next_uses = next_use_indices(blocks) if needs_future else None

    kept = None
    if uncached:
        # Dense table lookup instead of np.isin: one O(n) take against 8
        # slots, which matters now that ingested captures (unbounded,
        # unlike synthetic frames) flow through this path too.
        uncached_table = np.zeros(_NUM_STREAMS, dtype=bool)
        for stream in uncached:
            uncached_table[int(stream)] = True
        mask = uncached_table[streams]
        if mask.any():
            keep = ~mask
            kept = np.flatnonzero(keep)
            blocks = blocks[keep]
            streams = streams[keep]
            writes = writes[keep]
            if next_uses is not None:
                next_uses = next_uses[keep]

    sets = blocks & np.uint64(geometry.num_sets - 1)
    bases = sets * np.uint64(geometry.ways)
    sclasses = _CLASS_TABLE[streams]
    banks = samples = signatures = None
    if needs_bank or needs_signature:
        set_indices = sets.astype(np.int64)
        bank_of = np.asarray(geometry.bank_of_set, dtype=np.int64)[set_indices]
    if needs_bank:
        banks = bank_of.tolist()
        samples = np.asarray(geometry.is_sample_set, dtype=bool)[set_indices].tolist()
    if needs_signature:
        addresses = trace.addresses if kept is None else trace.addresses[kept]
        signatures = ship_signatures(addresses, bank_of).tolist()
    return DecodedTrace(
        blocks=blocks.tolist(),
        bases=bases.tolist(),
        sclasses=sclasses.tolist(),
        writes=writes.tolist(),
        next_uses=next_uses.tolist() if next_uses is not None else None,
        banks=banks,
        samples=samples,
        signatures=signatures,
        kept=kept,
    )


def mix_bits_array(values: np.ndarray) -> np.ndarray:
    """:func:`repro.utils.bitops.mix_bits` of every element, in ``uint64``
    (whose wraparound is ``mix_bits``' 64-bit masks)."""
    mixed = np.array(values, dtype=np.uint64)
    mixed ^= mixed >> np.uint64(30)
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(27)
    mixed *= np.uint64(0x94D049BB133111EB)
    mixed ^= mixed >> np.uint64(31)
    return mixed


def ship_signatures(addresses: np.ndarray, banks: np.ndarray) -> np.ndarray:
    """SHiP-mem's table index per access, ``bank * TABLE_ENTRIES +
    signature``: the hashed 16 KB region, as ``SHiPMemPolicy`` hashes it."""
    region_mask = np.uint64((1 << REGION_BITS) - 1)
    regions = (addresses >> np.uint64(REGION_SHIFT)) & region_mask
    signatures = mix_bits_array(regions) & np.uint64(TABLE_ENTRIES - 1)
    return banks * TABLE_ENTRIES + signatures.astype(np.int64)
