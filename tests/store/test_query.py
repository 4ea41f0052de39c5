"""Unit tests for the store's query language: equality, ``$in``, ranges."""

from __future__ import annotations

import pytest

from repro.store.collection import Collection
from repro.store.query import QueryError, compile_query, matches

DOC = {
    "dataset": "santander",
    "support": 12,
    "attributes": ["temperature", "light"],
    "parameters": {"min_support": 10, "evolving_rate": 1.5},
    "note": "hello world",
}


class TestEquality:
    def test_simple(self):
        assert matches(DOC, {"dataset": "santander"})
        assert not matches(DOC, {"dataset": "china6"})

    def test_dotted_path(self):
        assert matches(DOC, {"parameters.min_support": 10})
        assert not matches(DOC, {"parameters.min_support": 11})

    def test_missing_field(self):
        assert not matches(DOC, {"ghost": 1})
        assert matches(DOC, {"ghost": None})  # Mongo: missing equals null

    def test_array_field_does_not_match_a_scalar(self):
        assert not matches(DOC, {"attributes": "temperature"})

    def test_array_equals_array(self):
        assert matches(DOC, {"attributes": ["temperature", "light"]})

    def test_empty_query_matches_all(self):
        assert matches(DOC, {})


class TestComparisons:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ({"support": {"$gt": 11}}, True),
            ({"support": {"$gt": 12}}, False),
            ({"support": {"$gte": 12}}, True),
            ({"support": {"$lt": 13}}, True),
            ({"support": {"$lte": 11}}, False),
            ({"support": {"$lt": 12}}, False),
            ({"support": {"$lte": 12}}, True),
            ({"support": {"$gte": 10, "$lte": 20}}, True),
            ({"support": {"$gte": 10, "$lte": 11}}, False),
        ],
    )
    def test_operators(self, query, expected):
        assert matches(DOC, query) is expected

    def test_comparison_on_missing_field(self):
        assert not matches(DOC, {"ghost": {"$gt": 0}})

    def test_type_mismatch_is_false(self):
        assert not matches(DOC, {"note": {"$gt": 5}})


class TestMembership:
    def test_in(self):
        assert matches(DOC, {"dataset": {"$in": ["santander", "china6"]}})
        assert not matches(DOC, {"dataset": {"$in": ["china6"]}})

    def test_in_requires_list(self):
        with pytest.raises(QueryError):
            matches(DOC, {"dataset": {"$in": "santander"}})


class TestErrors:
    def test_unknown_operator(self):
        with pytest.raises(QueryError, match="unknown operator"):
            matches(DOC, {"support": {"$near": 5}})

    def test_unknown_top_level_operator(self):
        with pytest.raises(QueryError, match="top-level"):
            matches(DOC, {"$xor": []})

    @pytest.mark.parametrize(
        "query",
        [
            {"support": {"$ne": 12}},
            {"support": {"$eq": 12}},
            {"dataset": {"$nin": ["china6"]}},
            {"note": {"$exists": True}},
            {"attributes": {"$all": ["light"]}},
            {"attributes": {"$size": 2}},
            {"note": {"$regex": "^hello"}},
            {"support": {"$not": {"$gt": 20}}},
            {"$and": [{"dataset": "santander"}]},
            {"$or": [{"dataset": "santander"}]},
            {"$not": {"dataset": "china6"}},
        ],
    )
    def test_operators_outside_the_language_are_rejected(self, query):
        with pytest.raises(QueryError):
            compile_query(query)

    def test_compile_validates_early(self):
        with pytest.raises(QueryError):
            compile_query({"x": {"$bogus": 1}})

    @pytest.mark.parametrize(
        "query",
        [
            {"dataset": "china6", "support": {"$bogus": 1}},
            {"dataset": "china6", "support": {"$in": "xy"}},
            {"dataset": {"$in": ["china6"]}, "support": {"$gt": 1, "$near": 5}},
            {"dataset": "china6", "$xor": [{"support": 12}]},
        ],
    )
    def test_compile_validates_every_term(self, query):
        """A malformed term is rejected even after a term that misses."""
        with pytest.raises(QueryError):
            compile_query(query)
        collection = Collection("caps")
        collection.create_index("dataset", "hash")
        collection.insert_one(DOC)
        with pytest.raises(QueryError):
            collection.find(query)

    def test_compile_rejects_non_mapping(self):
        with pytest.raises(QueryError):
            compile_query(["not", "a", "dict"])  # type: ignore[arg-type]

    def test_compiled_predicate_works(self):
        predicate = compile_query({"support": {"$gte": 10}})
        assert predicate(DOC)
        assert not predicate({"support": 5})
