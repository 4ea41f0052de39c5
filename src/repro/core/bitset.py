"""Packed-bitmap evolving sets — the representation the search runs on.

Every layer of the miner ultimately asks one question: *at which timestamps
do all these sensors evolve (with consistent directions)?*  The sorted-array
representation answers it with ``np.intersect1d`` / ``np.isin`` — O(k log k)
and a fresh allocation per tree node.  This module packs an evolving set
into two ``np.uint64`` word arrays over the timeline:

* ``words`` — presence: bit ``t`` is set iff the sensor evolves at
  timestamp index ``t`` (bit ``i`` of word ``w`` is timestamp ``w*64 + i``);
* ``dirs`` — direction: bit ``t`` is set iff that evolution is an
  *increase* (only meaningful where the presence bit is set).

Co-evolution intersection then becomes a vectorized ``AND`` + popcount over
``timeline/64`` words, direction consistency becomes ``XOR``/``AND-NOT``,
and the time-delayed variant's shift becomes a word-level bit shift.  Every
search mode runs on these bitmaps; the exhaustive
:func:`repro.core.baseline.naive_search` keeps the sorted arrays as an
independent oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitsetEvolvingSet",
    "pack_indices",
    "popcount",
    "bits_to_indices",
    "and_words",
]

_WORD = 64
_ONE = np.uint64(1)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across a uint64 word array."""
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - exercised only on numpy < 2.0

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across a uint64 word array."""
        if words.size == 0:
            return 0
        return int(np.unpackbits(words.view(np.uint8)).sum())


def _num_words(horizon: int) -> int:
    return (int(horizon) + _WORD - 1) // _WORD


def pack_indices(indices: np.ndarray, horizon: int) -> np.ndarray:
    """Pack sorted timestamp indices into a presence word array.

    ``horizon`` bounds the timeline; indices must lie in ``[0, horizon)``.
    """
    words = np.zeros(_num_words(horizon), dtype=np.uint64)
    if len(indices):
        idx = np.asarray(indices, dtype=np.int64)
        if idx[0] < 0 or idx[-1] >= horizon:
            raise ValueError(
                f"indices must lie in [0, {horizon}), got range "
                f"[{int(idx[0])}, {int(idx[-1])}]"
            )
        np.bitwise_or.at(words, idx >> 6, _ONE << (idx & 63).astype(np.uint64))
    return words


def bits_to_indices(words: np.ndarray) -> np.ndarray:
    """Sorted timestamp indices of the set bits in a presence word array."""
    if words.size == 0:
        return np.empty(0, dtype=np.int64)
    # Force little-endian bytes so byte k of word w covers bits 8k..8k+7.
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    return np.flatnonzero(np.unpackbits(as_bytes, bitorder="little")).astype(np.int64)


def and_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise AND of two presence arrays, truncated to the shorter one.

    Word arrays may cover different horizons (each sensor's bitmap ends at
    its last evolution); bits past the shorter array are absent by
    definition, so truncating is exact.
    """
    n = min(a.size, b.size)
    return a[:n] & b[:n]


class BitsetEvolvingSet:
    """An evolving set as packed presence/direction bitmaps.

    Parameters
    ----------
    words, dirs:
        Equal-length ``np.uint64`` arrays; see the module docstring for the
        bit layout.
    horizon:
        Number of timeline positions the bitmaps cover (``len(words) * 64``
        rounded down to it; bits at or past ``horizon`` are always clear).
    """

    __slots__ = ("words", "dirs", "horizon")

    def __init__(self, words: np.ndarray, dirs: np.ndarray, horizon: int) -> None:
        words = np.asarray(words, dtype=np.uint64)
        dirs = np.asarray(dirs, dtype=np.uint64)
        if words.shape != dirs.shape or words.ndim != 1:
            raise ValueError("words and dirs must be 1-D and equal length")
        if words.size != _num_words(horizon):
            raise ValueError(
                f"horizon {horizon} needs {_num_words(horizon)} words, "
                f"got {words.size}"
            )
        words.setflags(write=False)
        dirs.setflags(write=False)
        self.words = words
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
        words = pack_indices(indices, horizon)
        increasing = indices[directions > 0] if len(indices) else indices
        dirs = pack_indices(increasing, horizon)
        return cls(words, dirs, horizon)

    def __len__(self) -> int:
        return popcount(self.words)

    def __bool__(self) -> bool:
        return bool(np.any(self.words))

    def count(self) -> int:
        """Number of evolving timestamps (popcount of the presence words)."""
        return popcount(self.words)

    def to_indices(self) -> np.ndarray:
        """Sorted timestamp indices of the evolving positions."""
        return bits_to_indices(self.words)

    def to_directions(self) -> np.ndarray:
        """±1 directions aligned with :meth:`to_indices`."""
        indices = self.to_indices()
        inc = bits_to_indices(self.words & self.dirs)
        directions = np.full(indices.shape, -1, dtype=np.int8)
        directions[np.isin(indices, inc, assume_unique=True)] = 1
        return directions

    def intersect_count(self, other: "BitsetEvolvingSet") -> int:
        """Number of timestamps where both sets evolve (any direction)."""
        return popcount(and_words(self.words, other.words))

    def shift(self, delay: int, horizon: int) -> "BitsetEvolvingSet":
        """Bitmap with every bit moved ``delay`` steps later, clipped.

        Positive delay moves events later (``t -> t + delay``), negative earlier; bits
        leaving ``[0, horizon)`` are dropped.  The result always covers
        exactly ``horizon`` positions so delayed-search word arrays stay
        aligned without truncation.
        """
        nwords = _num_words(horizon)
        return BitsetEvolvingSet(
            _shift_words(self.words, delay, nwords, horizon),
            _shift_words(self.dirs, delay, nwords, horizon),
            horizon,
        )

    def extended(
        self,
        new_indices: np.ndarray,
        new_directions: np.ndarray,
        horizon: int,
    ) -> "BitsetEvolvingSet":
        """Bitmap grown to ``horizon`` with a batch of new events OR-ed in.

        The streaming miner uses this for incremental word-append: the old
        words are copied once into the wider array and only the tail batch
        is packed, instead of re-packing the whole history.
        """
        if horizon < self.horizon:
            raise ValueError(
                f"cannot shrink bitmap: horizon {horizon} < {self.horizon}"
            )
        nwords = _num_words(horizon)
        words = np.zeros(nwords, dtype=np.uint64)
        dirs = np.zeros(nwords, dtype=np.uint64)
        words[: self.words.size] = self.words
        dirs[: self.dirs.size] = self.dirs
        new_indices = np.asarray(new_indices, dtype=np.int64)
        if len(new_indices):
            if int(new_indices[0]) < self.horizon:
                raise ValueError(
                    "extension events must come after the existing horizon"
                )
            words |= pack_indices(new_indices, horizon)
            new_directions = np.asarray(new_directions)
            dirs |= pack_indices(new_indices[new_directions > 0], horizon)
        return BitsetEvolvingSet(words, dirs, horizon)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitsetEvolvingSet(n={self.count()}, horizon={self.horizon})"


def _shift_words(
    words: np.ndarray, delay: int, nwords_out: int, horizon: int
) -> np.ndarray:
    """Word-level bit shift by ``delay`` positions into an array of
    ``nwords_out`` words, clearing bits at or past ``horizon``."""
    out = np.zeros(nwords_out, dtype=np.uint64)
    n = words.size
    if delay >= 0:
        ws, bs = divmod(delay, _WORD)
        lo = words << np.uint64(bs) if bs else words
        m = min(n, nwords_out - ws)
        if m > 0:
            out[ws : ws + m] |= lo[:m]
        if bs:
            hi = words >> np.uint64(_WORD - bs)
            m = min(n, nwords_out - ws - 1)
            if m > 0:
                out[ws + 1 : ws + 1 + m] |= hi[:m]
    else:
        ws, bs = divmod(-delay, _WORD)
        lo = words >> np.uint64(bs) if bs else words
        m = min(n - ws, nwords_out)
        if m > 0:
            out[:m] |= lo[ws : ws + m]
        if bs:
            hi = words << np.uint64(_WORD - bs)
            m = min(n - ws - 1, nwords_out)
            if m > 0:
                out[:m] |= hi[ws + 1 : ws + 1 + m]
    excess = nwords_out * _WORD - horizon
    if excess and nwords_out:
        out[-1] &= np.uint64((1 << (_WORD - excess)) - 1)
    return out
