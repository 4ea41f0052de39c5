"""Evolving sets as Python-int bitmaps — the representation the search runs on.

Every layer of the miner ultimately asks one question: *at which timestamps
do all these sensors evolve (with consistent directions)?*  This module
holds an evolving set as two non-negative Python ints over the timeline:

* ``presence`` — bit ``t`` is set iff the sensor evolves at timeline index
  ``t``;
* ``dirs`` — bit ``t`` is set iff that evolution is an *increase* (always a
  subset of ``presence``).

Co-evolution intersection is ``a & b`` and its support ``int.bit_count()``;
direction consistency keeps ``common & ~differs`` or ``common & differs``
with ``differs = dirs_a ^ dirs_b`` (``common`` is non-negative, so both
are too); the search shifts a sensor ``d`` steps earlier with ``x >> d``
or ``x << -d`` and needs no clip, because it only ever ANDs the result
with bits that descend from the seed's unshifted presence
(:meth:`BitsetEvolvingSet.shift` clips, for a shifted set on its own).
At paper scale a bitmap spans 8
(china6, 480 steps) to 32 (santander, 2016 steps) machine words: CPython
runs that word loop in C without the per-call cost of a numpy array
operation, which at this size exceeds the work itself.  numpy appears only
at the edges — one ``packbits`` pass builds a sensor's ints from its index
array, and :func:`bitmap_positions` turns a result's bitmaps into its
stored index column in one batch, with no per-pattern tuples.  The one search loop runs every mode on
these bitmaps; the exhaustive :func:`repro.core.baseline.naive_search` keeps the
sorted arrays as an independent oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["BitsetEvolvingSet", "bit_indices", "bitmap_positions", "pack_bits"]

#: Bitmaps unpacked per numpy pass by :func:`bitmap_positions`.
_DECODE_BATCH = 4096


def pack_bits(indices: np.ndarray, horizon: int) -> int:
    """The int with bit ``t`` set for every sorted index ``t``.

    ``horizon`` bounds the timeline; indices must lie in ``[0, horizon)``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if not idx.size:
        return 0
    if idx[0] < 0 or idx[-1] >= horizon:
        raise ValueError(
            f"indices must lie in [0, {horizon}), got range "
            f"[{int(idx[0])}, {int(idx[-1])}]"
        )
    mask = np.zeros(horizon, dtype=bool)
    mask[idx] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def bit_indices(bits: int) -> np.ndarray:
    """Sorted positions of the set bits of a non-negative int."""
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    mask = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def bitmap_positions(bitmaps: Sequence[int]) -> np.ndarray:
    """The sorted set-bit positions of each bitmap, concatenated in order.

    This is a result's ``indices`` column straight from its patterns'
    bitmaps: one numpy unpack per ``_DECODE_BATCH`` bitmaps (which bounds
    the unpacked buffer), row-major so each bitmap's positions stay
    together and ascending.  A zero bitmap contributes nothing.
    """
    parts = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(bitmaps), _DECODE_BATCH):
        batch = bitmaps[lo : lo + _DECODE_BATCH]
        width = max(1, (max(bits.bit_length() for bits in batch) + 7) // 8)
        raw = b"".join([bits.to_bytes(width, "little") for bits in batch])
        mask = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        # A bool view scans several times faster than the uint8 bytes.
        parts.append(np.flatnonzero(mask.view(bool)) % (8 * width))
    return np.concatenate(parts)


class BitsetEvolvingSet:
    """An evolving set as presence/direction int bitmaps.

    Parameters
    ----------
    presence, dirs:
        Non-negative ints; see the module docstring for the bit layout.
    horizon:
        Number of timeline positions the bitmaps cover; bits at or past
        ``horizon`` are always clear.
    """

    __slots__ = ("presence", "dirs", "horizon")

    def __init__(self, presence: int, dirs: int, horizon: int) -> None:
        if presence < 0 or dirs < 0:
            raise ValueError("bitmaps must be non-negative ints")
        if presence >> horizon:
            raise ValueError(f"presence has bits at or past horizon {horizon}")
        if dirs & ~presence:
            raise ValueError("direction bits must be a subset of presence bits")
        self.presence = presence
        self.dirs = dirs
        self.horizon = int(horizon)

    @classmethod
    def from_arrays(
        cls,
        indices: np.ndarray,
        directions: np.ndarray,
        horizon: int | None = None,
    ) -> "BitsetEvolvingSet":
        """Pack sorted indices + ±1 directions into bitmaps.

        ``horizon`` defaults to the tightest cover (last index + 1).
        """
        indices = np.asarray(indices, dtype=np.int64)
        directions = np.asarray(directions)
        if horizon is None:
            horizon = int(indices[-1]) + 1 if len(indices) else 0
        increasing = indices[directions > 0] if len(indices) else indices
        return cls(pack_bits(indices, horizon), pack_bits(increasing, horizon), horizon)

    def __len__(self) -> int:
        return self.presence.bit_count()

    def __bool__(self) -> bool:
        return self.presence != 0

    def count(self) -> int:
        """Number of evolving timestamps (set presence bits)."""
        return self.presence.bit_count()

    def to_indices(self) -> np.ndarray:
        """Sorted timestamp indices of the evolving positions."""
        return bit_indices(self.presence)

    def to_directions(self) -> np.ndarray:
        """±1 directions aligned with :meth:`to_indices`."""
        indices = self.to_indices()
        directions = np.full(indices.shape, -1, dtype=np.int8)
        directions[np.searchsorted(indices, bit_indices(self.dirs))] = 1
        return directions

    def intersect_count(self, other: "BitsetEvolvingSet") -> int:
        """Number of timestamps where both sets evolve (any direction)."""
        return (self.presence & other.presence).bit_count()

    def shift(self, delay: int, horizon: int) -> "BitsetEvolvingSet":
        """Bitmap with every bit moved ``delay`` steps later, clipped.

        Positive delay moves events later (``t -> t + delay``), negative
        earlier; bits leaving ``[0, horizon)`` are dropped and the result
        covers exactly ``horizon`` positions.
        """
        keep = (1 << horizon) - 1
        if delay >= 0:
            return BitsetEvolvingSet(
                (self.presence << delay) & keep, (self.dirs << delay) & keep, horizon
            )
        return BitsetEvolvingSet(
            (self.presence >> -delay) & keep, (self.dirs >> -delay) & keep, horizon
        )

    def extended(
        self,
        new_indices: np.ndarray,
        new_directions: np.ndarray,
        horizon: int,
    ) -> "BitsetEvolvingSet":
        """Bitmap grown to ``horizon`` with a batch of new events OR-ed in.

        The streaming miner uses this on every append: only the tail batch
        is packed (over ``[self.horizon, horizon)``) and OR-ed in above the
        existing bits, instead of re-packing the whole history.
        """
        if horizon < self.horizon:
            raise ValueError(
                f"cannot shrink bitmap: horizon {horizon} < {self.horizon}"
            )
        presence, dirs = self.presence, self.dirs
        new_indices = np.asarray(new_indices, dtype=np.int64)
        if len(new_indices):
            if int(new_indices[0]) < self.horizon:
                raise ValueError(
                    "extension events must come after the existing horizon"
                )
            tail = new_indices - self.horizon
            width = horizon - self.horizon
            increasing = tail[np.asarray(new_directions) > 0]
            presence |= pack_bits(tail, width) << self.horizon
            dirs |= pack_bits(increasing, width) << self.horizon
        return BitsetEvolvingSet(presence, dirs, horizon)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitsetEvolvingSet(n={self.count()}, horizon={self.horizon})"
