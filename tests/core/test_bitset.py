"""Unit tests for the Python-int bitmap evolving-set representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import BitsetEvolvingSet, bit_indices, bitmap_positions, pack_bits
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
        assert pack_bits(np.empty(0, dtype=np.int64), 0) == 0
        assert bit_indices(0).size == 0
        assert bit_indices(0).dtype == np.int64

    def test_single_word(self):
        bits = pack_bits(np.array([0, 5, 63]), 64)
        assert bits == 1 | 1 << 5 | 1 << 63
        assert bits.bit_count() == 3
        np.testing.assert_array_equal(bit_indices(bits), [0, 5, 63])

    def test_word_boundary(self):
        # 64 and 65 sit past the first machine word.
        bits = pack_bits(np.array([63, 64, 65]), 66)
        assert bits.bit_length() == 66
        np.testing.assert_array_equal(bit_indices(bits), [63, 64, 65])

    def test_horizon_not_multiple_of_64(self):
        bits = pack_bits(np.array([0, 99]), 100)
        assert bits == 1 | 1 << 99
        np.testing.assert_array_equal(bit_indices(bits), [0, 99])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="indices must lie"):
            pack_bits(np.array([70]), 64)
        with pytest.raises(ValueError, match="indices must lie"):
            pack_bits(np.array([-1, 3]), 64)

    @given(index_sets())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, indices):
        horizon = int(indices[-1]) + 1 if len(indices) else 0
        bits = pack_bits(indices, horizon)
        assert bits == sum(1 << int(i) for i in indices)
        np.testing.assert_array_equal(bit_indices(bits), indices)
        assert bits.bit_count() == len(indices)


class TestBitmapPositions:
    def test_positions_concatenate_in_bitmap_order(self):
        wide = 1 << 3 | 1 << 70
        positions = bitmap_positions([wide, 0, 1 << 5, wide])
        assert positions.tolist() == [3, 70, 5, 3, 70]
        assert all(isinstance(i, int) for i in positions.tolist())

    def test_only_zero_bitmaps(self):
        assert bitmap_positions([0, 0]).tolist() == []
        assert bitmap_positions([]).tolist() == []

    @given(st.lists(index_sets(max_index=300), max_size=30), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_sets_across_batches(self, index_lists, batch):
        from repro.core import bitset

        bitmaps = [sum(1 << int(i) for i in idx) for idx in index_lists]
        original = bitset._DECODE_BATCH
        bitset._DECODE_BATCH = batch
        try:
            positions = bitmap_positions(bitmaps)
        finally:
            bitset._DECODE_BATCH = original
        assert positions.tolist() == [int(i) for idx in index_lists for i in idx]


class TestBitsetEvolvingSet:
    def test_from_arrays_directions(self):
        bs = BitsetEvolvingSet.from_arrays(
            np.array([1, 64, 70]), np.array([1, -1, 1], dtype=np.int8)
        )
        assert bs.presence == 1 << 1 | 1 << 64 | 1 << 70
        assert bs.dirs == 1 << 1 | 1 << 70
        np.testing.assert_array_equal(bs.to_indices(), [1, 64, 70])
        np.testing.assert_array_equal(bs.to_directions(), [1, -1, 1])

    def test_empty(self):
        bs = BitsetEvolvingSet.from_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)
        )
        assert len(bs) == 0
        assert not bs
        assert bs.presence == 0 and bs.dirs == 0
        assert bs.to_indices().size == 0
        assert bs.to_directions().size == 0

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

    def test_and_of_differing_horizons(self):
        a = pack_bits(np.array([1, 100]), 128)
        b = pack_bits(np.array([1, 2]), 64)
        np.testing.assert_array_equal(bit_indices(a & b), [1])


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
        assert grown.horizon == 300

    def test_shrink_rejected(self):
        ev = make_set([100])
        with pytest.raises(ValueError, match="cannot shrink"):
            ev.bits.extended(np.empty(0, dtype=np.int64), np.empty(0), 50)

    def test_overlapping_batch_rejected(self):
        ev = make_set([100])
        with pytest.raises(ValueError, match="after the existing horizon"):
            ev.bits.extended(np.array([99]), np.array([1], dtype=np.int8), 300)

    def test_batch_past_new_horizon_rejected(self):
        ev = make_set([10])
        with pytest.raises(ValueError, match="indices must lie"):
            ev.bits.extended(np.array([40]), np.array([1], dtype=np.int8), 40)


class TestValidation:
    def test_mismatched_words_dirs(self):
        # A direction bit where the sensor does not evolve.
        with pytest.raises(ValueError, match="subset"):
            BitsetEvolvingSet(0b0101, 0b0010, 8)

    def test_horizon_word_count_mismatch(self):
        with pytest.raises(ValueError, match="horizon"):
            BitsetEvolvingSet(1 << 128, 0, 128)

    def test_negative_bitmaps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BitsetEvolvingSet(-1, 0, 8)
        with pytest.raises(ValueError, match="non-negative"):
            BitsetEvolvingSet(1, -2, 8)


# ---------------------------------------------------------------------------
# The int operations against the same questions asked of plain Python sets.
# ---------------------------------------------------------------------------

HORIZONS = (63, 64, 65, 100, 2016)


@st.composite
def events(draw, horizon: int) -> dict[int, int]:
    """Evolving timestamps in ``[0, horizon)`` with a ±1 direction each."""
    indices = draw(
        st.sets(st.integers(min_value=0, max_value=horizon - 1), max_size=60)
    )
    return {i: draw(st.sampled_from((-1, 1))) for i in sorted(indices)}


@st.composite
def horizon_and_events(draw, count: int):
    horizon = draw(st.sampled_from(HORIZONS))
    return horizon, [draw(events(horizon)) for _ in range(count)]


def as_bits(evs: dict[int, int], horizon: int | None = None) -> BitsetEvolvingSet:
    indices = np.array(sorted(evs), dtype=np.int64)
    directions = np.array([evs[i] for i in sorted(evs)], dtype=np.int8)
    return BitsetEvolvingSet.from_arrays(indices, directions, horizon)


def assert_matches(bits: BitsetEvolvingSet, evs: dict[int, int]) -> None:
    assert bits.presence >= 0 and bits.dirs >= 0
    assert bits.presence >> bits.horizon == 0
    assert bits.dirs & ~bits.presence == 0
    assert bits.to_indices().tolist() == sorted(evs)
    assert bits.to_directions().tolist() == [evs[i] for i in sorted(evs)]
    assert bits.count() == len(evs)


class TestAgainstPythonSets:
    @given(horizon_and_events(2))
    @settings(max_examples=120, deadline=None)
    def test_intersect_count(self, case):
        _horizon, (a, b) = case
        # Tight covers: the two bitmaps usually differ in length.
        bits_a, bits_b = as_bits(a), as_bits(b)
        common = set(a) & set(b)
        assert bits_a.intersect_count(bits_b) == len(common)
        assert bits_b.intersect_count(bits_a) == len(common)
        assert bit_indices(bits_a.presence & bits_b.presence).tolist() == sorted(common)

    @given(
        horizon_and_events(1),
        st.integers(min_value=0, max_value=2100),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift(self, case, magnitude, earlier):
        horizon, (evs,) = case
        delay = -magnitude if earlier else magnitude
        moved = {
            t + delay: d for t, d in evs.items() if 0 <= t + delay < horizon
        }
        shifted = as_bits(evs).shift(delay, horizon)
        assert shifted.horizon == horizon
        assert_matches(shifted, moved)

    @given(horizon_and_events(1), st.data())
    @settings(max_examples=120, deadline=None)
    def test_extended(self, case, data):
        horizon, (evs,) = case
        cut = data.draw(st.integers(min_value=0, max_value=horizon))
        grown_to = data.draw(st.integers(min_value=horizon, max_value=horizon + 70))
        old = {t: d for t, d in evs.items() if t < cut}
        new = {t: d for t, d in evs.items() if t >= cut}
        new_indices = np.array(sorted(new), dtype=np.int64)
        new_directions = np.array([new[t] for t in sorted(new)], dtype=np.int8)
        grown = as_bits(old, cut).extended(new_indices, new_directions, grown_to)
        assert grown.horizon == grown_to
        assert_matches(grown, evs)
        whole = as_bits(evs, grown_to)
        assert (grown.presence, grown.dirs) == (whole.presence, whole.dirs)

    @given(horizon_and_events(1))
    @settings(max_examples=120, deadline=None)
    def test_directions_round_trip(self, case):
        horizon, (evs,) = case
        assert_matches(as_bits(evs, horizon), evs)
        assert_matches(as_bits(evs), evs)

    @given(horizon_and_events(2))
    @settings(max_examples=120, deadline=None)
    def test_direction_branches_never_negative(self, case):
        """The direction-aware split keeps only non-negative ints."""
        _horizon, (a, b) = case
        bits_a, bits_b = as_bits(a), as_bits(b)
        common = bits_a.presence & bits_b.presence
        differs = bits_a.dirs ^ bits_b.dirs
        same, opposite = common & ~differs, common & differs
        assert common >= 0 and same >= 0 and opposite >= 0
        assert same | opposite == common and same & opposite == 0
        shared = set(a) & set(b)
        assert bit_indices(same).tolist() == sorted(t for t in shared if a[t] == b[t])
        assert bit_indices(opposite).tolist() == sorted(
            t for t in shared if a[t] != b[t]
        )
        assert same.bit_count() + opposite.bit_count() == len(shared)
