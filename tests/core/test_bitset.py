"""Unit tests for the packed-bitmap evolving-set representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import (
    BitsetEvolvingSet,
    and_words,
    bits_to_indices,
    pack_indices,
    popcount,
)
from repro.core.types import EvolvingSet


def make_set(indices, directions=None) -> EvolvingSet:
    idx = np.asarray(indices, dtype=np.int64)
    if directions is None:
        directions = np.ones(idx.shape, dtype=np.int8)
    return EvolvingSet(idx, np.asarray(directions, dtype=np.int8))


@st.composite
def index_sets(draw, max_index=200):
    n = draw(st.integers(min_value=0, max_value=40))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_index),
            min_size=n, max_size=n, unique=True,
        )
    )
    return np.array(sorted(indices), dtype=np.int64)


class TestPackRoundtrip:
    def test_empty(self):
        assert pack_indices(np.empty(0, dtype=np.int64), 0).size == 0
        assert bits_to_indices(np.empty(0, dtype=np.uint64)).size == 0

    def test_single_word(self):
        words = pack_indices(np.array([0, 5, 63]), 64)
        assert words.size == 1
        assert popcount(words) == 3
        np.testing.assert_array_equal(bits_to_indices(words), [0, 5, 63])

    def test_word_boundary(self):
        # 64 and 65 exercise the first bit of the second word.
        words = pack_indices(np.array([63, 64, 65]), 66)
        assert words.size == 2
        np.testing.assert_array_equal(bits_to_indices(words), [63, 64, 65])

    def test_horizon_not_multiple_of_64(self):
        words = pack_indices(np.array([0, 99]), 100)
        assert words.size == 2
        np.testing.assert_array_equal(bits_to_indices(words), [0, 99])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="indices must lie"):
            pack_indices(np.array([70]), 64)

    @given(index_sets())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, indices):
        horizon = int(indices[-1]) + 1 if len(indices) else 0
        words = pack_indices(indices, horizon)
        np.testing.assert_array_equal(bits_to_indices(words), indices)
        assert popcount(words) == len(indices)


class TestBitsetEvolvingSet:
    def test_from_arrays_directions(self):
        bs = BitsetEvolvingSet.from_arrays(
            np.array([1, 64, 70]), np.array([1, -1, 1], dtype=np.int8)
        )
        np.testing.assert_array_equal(bs.to_indices(), [1, 64, 70])
        np.testing.assert_array_equal(bs.to_directions(), [1, -1, 1])

    def test_empty(self):
        bs = BitsetEvolvingSet.from_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)
        )
        assert len(bs) == 0
        assert not bs
        assert bs.to_indices().size == 0

    def test_lazy_bits_matches_arrays(self):
        ev = make_set([3, 64, 127, 128], [1, -1, -1, 1])
        np.testing.assert_array_equal(ev.bits.to_indices(), ev.indices)
        np.testing.assert_array_equal(ev.bits.to_directions(), ev.directions)
        # The property caches: same object on second access.
        assert ev.bits is ev.bits

    def test_intersect_count_differing_horizons(self):
        a = make_set([0, 5, 130])
        b = make_set([5, 7])  # covers one word only
        assert a.bits.intersect_count(b.bits) == 1
        assert b.bits.intersect_count(a.bits) == 1

    def test_and_words_truncates(self):
        a = pack_indices(np.array([1, 100]), 128)
        b = pack_indices(np.array([1, 2]), 64)
        np.testing.assert_array_equal(bits_to_indices(and_words(a, b)), [1])


class TestShift:
    @given(index_sets(), st.integers(min_value=-130, max_value=130))
    @settings(max_examples=80, deadline=None)
    def test_shift_matches_array_shift(self, indices, delay):
        horizon = 220
        ev = make_set(indices)
        moved = indices + delay
        expected = moved[(moved >= 0) & (moved < horizon)]
        bits = ev.bits.shift(delay, horizon)
        np.testing.assert_array_equal(bits.to_indices(), expected)
        assert bits.horizon == horizon

    def test_shift_exact_word_multiple(self):
        ev = make_set([0, 63, 64])
        np.testing.assert_array_equal(
            ev.bits.shift(64, 200).to_indices(), [64, 127, 128]
        )
        np.testing.assert_array_equal(
            ev.bits.shift(-64, 200).to_indices(), [0]
        )

    def test_shift_clips_to_horizon(self):
        ev = make_set([10, 60])
        np.testing.assert_array_equal(ev.bits.shift(10, 65).to_indices(), [20])

    def test_shift_preserves_directions(self):
        ev = make_set([3, 70], [-1, 1])
        bits = ev.bits.shift(5, 100)
        np.testing.assert_array_equal(bits.to_indices(), [8, 75])
        np.testing.assert_array_equal(bits.to_directions(), [-1, 1])


class TestExtended:
    def test_word_append(self):
        ev = make_set([1, 50], [1, -1])
        grown = ev.bits.extended(
            np.array([64, 130]), np.array([-1, 1], dtype=np.int8), 192
        )
        np.testing.assert_array_equal(grown.to_indices(), [1, 50, 64, 130])
        np.testing.assert_array_equal(grown.to_directions(), [1, -1, -1, 1])
        assert grown.horizon == 192

    def test_empty_batch(self):
        ev = make_set([1])
        grown = ev.bits.extended(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), 300
        )
        np.testing.assert_array_equal(grown.to_indices(), [1])

    def test_shrink_rejected(self):
        ev = make_set([100])
        with pytest.raises(ValueError, match="cannot shrink"):
            ev.bits.extended(np.empty(0, dtype=np.int64), np.empty(0), 50)

    def test_overlapping_batch_rejected(self):
        ev = make_set([100])
        with pytest.raises(ValueError, match="after the existing horizon"):
            ev.bits.extended(np.array([99]), np.array([1], dtype=np.int8), 300)


class TestValidation:
    def test_mismatched_words_dirs(self):
        with pytest.raises(ValueError, match="equal length"):
            BitsetEvolvingSet(
                np.zeros(2, dtype=np.uint64), np.zeros(1, dtype=np.uint64), 128
            )

    def test_horizon_word_count_mismatch(self):
        with pytest.raises(ValueError, match="words"):
            BitsetEvolvingSet(
                np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64), 128
            )
