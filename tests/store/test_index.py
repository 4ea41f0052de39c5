"""Unit tests for the secondary index structures."""

from __future__ import annotations

import pytest

from repro.store.index import HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_lookup(self):
        idx = HashIndex("city")
        idx.insert(1, {"city": "london"})
        idx.insert(2, {"city": "london"})
        idx.insert(3, {"city": "paris"})
        assert idx.lookup("london") == {1, 2}
        assert idx.lookup("tokyo") == set()
        assert len(idx) == 3

    def test_remove(self):
        idx = HashIndex("city")
        idx.insert(1, {"city": "london"})
        idx.remove(1)
        assert idx.lookup("london") == set()
        assert 1 not in idx.ids()
        idx.remove(1)  # idempotent

    def test_missing_field_not_indexed(self):
        idx = HashIndex("city")
        idx.insert(1, {"name": "x"})
        assert 1 not in idx.ids()

    def test_none_not_indexed(self):
        idx = HashIndex("city")
        idx.insert(1, {"city": None})
        assert 1 not in idx.ids()

    def test_unhashable_value_is_present_but_not_bucketed(self):
        idx = HashIndex("tags")
        idx.insert(1, {"tags": ["a", "b"]})
        assert 1 in idx.ids()  # so equality with None excludes it
        assert idx.lookup("a") == set()
        with pytest.raises(TypeError):
            idx.lookup(["a", "b"])
        idx.remove(1)
        assert 1 not in idx.ids()

    def test_dotted_path(self):
        idx = HashIndex("a.b")
        idx.insert(1, {"a": {"b": 5}})
        assert idx.lookup(5) == {1}

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            HashIndex("")


class TestSortedIndex:
    def _index(self):
        idx = SortedIndex("age")
        for doc_id, age in [(1, 30), (2, 50), (3, 40), (4, 30)]:
            idx.insert(doc_id, {"age": age})
        return idx

    def test_full_range(self):
        assert list(self._index().range()) == [1, 4, 3, 2]

    def test_bounded_range(self):
        idx = self._index()
        assert set(idx.range(30, 40)) == {1, 4, 3}
        assert set(idx.range(31, 50)) == {3, 2}

    def test_exclusive_bounds(self):
        idx = self._index()
        assert set(idx.range(30, 50, include_low=False)) == {3, 2}
        assert set(idx.range(30, 50, include_high=False)) == {1, 4, 3}

    def test_remove(self):
        idx = self._index()
        idx.remove(3)
        assert set(idx.range(30, 50)) == {1, 4, 2}
        assert len(idx) == 3
        idx.remove(3)  # idempotent

    def test_duplicates_supported(self):
        idx = self._index()
        assert set(idx.range(30, 30)) == {1, 4}

    def test_unorderable_skipped(self):
        idx = SortedIndex("v")
        idx.insert(1, {"v": 5})
        idx.insert(2, {"v": "string"})  # int vs str insort -> TypeError path
        assert list(idx.range()) == [1]

    def test_missing_field_skipped(self):
        idx = SortedIndex("v")
        idx.insert(1, {"other": 5})
        assert len(idx) == 0
