"""Unit tests for document collections."""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import pytest

from repro.store import thaw
from repro.store.collection import Collection
from repro.store.query import QueryError


@pytest.fixture
def people() -> Collection:
    c = Collection("people")
    c.insert_many(
        [
            {"name": "ada", "age": 36, "city": "london"},
            {"name": "grace", "age": 85, "city": "arlington"},
            {"name": "alan", "age": 41, "city": "london"},
        ]
    )
    return c


class TestInsertFind:
    def test_insert_assigns_ids(self, people):
        ids = [d["_id"] for d in people.find()]
        assert ids == [1, 2, 3]

    def test_find_with_query(self, people):
        docs = people.find({"city": "london"})
        assert {d["name"] for d in docs} == {"ada", "alan"}

    def test_find_one(self, people):
        doc = people.find_one({"name": "grace"})
        assert doc is not None and doc["age"] == 85
        assert people.find_one({"name": "ghost"}) is None

    def test_find_sorted(self, people):
        docs = people.find(sort="age")
        assert [d["name"] for d in docs] == ["ada", "alan", "grace"]
        docs = people.find(sort="age", descending=True)
        assert [d["name"] for d in docs] == ["grace", "alan", "ada"]

    def test_find_sort_missing_field_sorts_last(self, people):
        people.insert_one({"name": "noage"})
        docs = people.find(sort="age")
        assert docs[-1]["name"] == "noage"

    def test_find_limit(self, people):
        assert len(people.find(limit=2)) == 2
        with pytest.raises(ValueError):
            people.find(limit=-1)

    def test_count(self, people):
        assert people.count() == 3
        assert people.count({"city": "london"}) == 2
        assert len(people) == 3

    def test_insert_rejects_non_mapping(self, people):
        with pytest.raises(TypeError):
            people.insert_one(["nope"])  # type: ignore[arg-type]

    def test_returned_documents_are_read_only(self, people):
        people.insert_one({"name": "nested", "tags": ["a"], "meta": {"k": [1]}})
        expected = {"name": "nested", "tags": ["a"], "meta": {"k": [1]}, "_id": 4}
        doc = people.find_one({"name": "nested"})
        mutations = [
            lambda: doc.__setitem__("age", 999),
            lambda: doc.update(age=999),
            lambda: doc.pop("name"),
            lambda: doc["tags"].append("b"),
            lambda: doc["tags"].__setitem__(0, "z"),
            lambda: doc["meta"].__setitem__("k", None),
            lambda: doc["meta"]["k"].extend([2]),
        ]
        for mutate in mutations:
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        assert people.find_one({"name": "nested"}) == expected
        copy_ = thaw(doc)
        copy_["tags"].append("b")
        copy_["meta"]["k"].append(2)
        copy_["age"] = 1
        assert type(copy_) is dict and type(copy_["meta"]["k"]) is list
        assert people.find_one({"name": "nested"}) == expected

    def test_inserted_documents_are_copied(self):
        c = Collection("c")
        original = {"tags": ["a"]}
        c.insert_one(original)
        original["tags"].append("b")
        assert c.find_one({})["tags"] == ["a"]


class TestUpdateDelete:
    def test_update_one(self, people):
        doc_id = people.update_one({"name": "ada"}, {"age": 37})
        assert doc_id == 1
        assert people.find_one({"name": "ada"})["age"] == 37

    def test_update_missing_returns_none(self, people):
        assert people.update_one({"name": "ghost"}, {"age": 1}) is None

    def test_update_id_rejected(self, people):
        with pytest.raises(QueryError, match="_id"):
            people.update_one({"name": "ada"}, {"_id": 99})

    def test_replace_one_keeps_id(self, people):
        doc_id = people.replace_one({"name": "ada"}, {"name": "ada2", "age": 1})
        assert doc_id == 1
        assert people.find_one({"_id": 1})["name"] == "ada2"

    def test_replace_missing_returns_none(self, people):
        assert people.replace_one({"name": "ghost"}, {"x": 1}) is None

    def test_delete_many(self, people):
        assert people.delete_many({"city": "london"}) == 2
        assert people.count() == 1

    def test_delete_none_matching(self, people):
        assert people.delete_many({"city": "tokyo"}) == 0

    def test_ids_not_reused_after_delete(self, people):
        people.delete_many({})
        new_id = people.insert_one({"name": "new"})
        assert new_id == 4


class TestDocumentIsolation:
    """Stored documents are frozen on write and shared read-only on read."""

    def test_reads_share_the_stored_object(self, people):
        assert people.find_one({"name": "ada"}) is people.find_one({"name": "ada"})

    def test_reader_snapshot_survives_update(self, people):
        people.insert_one({"name": "n", "tags": ["a"]})
        before = people.find_one({"name": "n"})
        people.update_one({"name": "n"}, {"tags": ["a", "b"], "extra": 1})
        assert before == {"name": "n", "tags": ["a"], "_id": 4}
        after = people.find_one({"name": "n"})
        assert after == {"name": "n", "tags": ["a", "b"], "_id": 4, "extra": 1}
        assert after is not before

    def test_update_rejecting_id_leaves_the_document_indexed(self, people):
        people.create_index("city", "hash")
        with pytest.raises(QueryError, match="_id"):
            people.update_one({"name": "ada"}, {"city": "york", "_id": 9})
        assert [d["name"] for d in people.find({"city": "london"})] == ["ada", "alan"]

    def test_deepcopy_and_pickle_yield_plain_containers(self, people):
        people.insert_one({"name": "n", "tags": [{"k": [1]}]})
        doc = people.find_one({"name": "n"})
        for clone in (copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
            assert clone == doc
            assert type(clone) is dict
            assert type(clone["tags"]) is list
            assert type(clone["tags"][0]) is dict
            assert type(clone["tags"][0]["k"]) is list
            clone["tags"][0]["k"].append(2)  # mutable, and independent
        assert doc["tags"][0]["k"] == [1]

    def test_concurrent_reader_sees_whole_versions(self):
        """A reader racing a writer that adds fields gets consistent
        versions, never an error from iterating a document mid-update."""
        c = Collection("c")
        c.insert_one({"name": "n", "a": 0, "b": 0, **{f"p{i}": i for i in range(5000)}})
        stop = threading.Event()
        errors: list[BaseException] = []

        def write() -> None:
            version = 0
            try:
                while not stop.is_set():
                    version += 1
                    c.update_one(
                        {"name": "n"}, {"a": version, f"new{version}": 1, "b": version}
                    )
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(200):
                doc = c.find_one({"name": "n"})
                assert doc["a"] == doc["b"]
        finally:
            stop.set()
            writer.join()
            sys.setswitchinterval(interval)
        assert not errors


class TestIndexedQueries:
    def test_hash_index_equality(self, people):
        people.create_index("city", "hash")
        docs = people.find({"city": "london"})
        assert {d["name"] for d in docs} == {"ada", "alan"}

    def test_hash_index_backfilled(self, people):
        people.create_index("city", "hash")
        people.insert_one({"name": "new", "city": "london"})
        assert people.count({"city": "london"}) == 3

    def test_hash_index_after_update(self, people):
        people.create_index("city", "hash")
        people.update_one({"name": "ada"}, {"city": "paris"})
        assert people.count({"city": "london"}) == 1
        assert people.count({"city": "paris"}) == 1

    def test_hash_index_after_delete(self, people):
        people.create_index("city", "hash")
        people.delete_many({"name": "ada"})
        assert people.count({"city": "london"}) == 1

    def test_sorted_index_range(self, people):
        people.create_index("age", "sorted")
        docs = people.find({"age": {"$gte": 40, "$lte": 90}})
        assert {d["name"] for d in docs} == {"grace", "alan"}

    def test_sorted_index_strict_bounds(self, people):
        people.create_index("age", "sorted")
        docs = people.find({"age": {"$gt": 36, "$lt": 85}})
        assert {d["name"] for d in docs} == {"alan"}

    def test_index_results_equal_scan(self, people):
        scan = people.find({"city": "london"})
        people.create_index("city", "hash")
        indexed = people.find({"city": "london"})
        assert scan == indexed

    def test_docs_missing_indexed_field_still_found(self, people):
        people.create_index("city", "hash")
        people.insert_one({"name": "nocity"})
        assert people.find_one({"name": "nocity"}) is not None
        # equality on missing field matches None per Mongo semantics
        assert people.count({"city": None}) == 1

    def test_mixed_query_scans_documents_missing_the_field(self, people):
        people.create_index("city", "hash")
        people.insert_one({"name": "nocity"})
        query = {"city": None, "name": {"$in": ["nocity", "ghost"]}}
        assert [d["name"] for d in people.find(query)] == ["nocity"]

    def test_unhashable_values_still_match_through_the_index(self, people):
        people.create_index("city", "hash")
        people.insert_one({"name": "nomad", "city": ["london", "paris"]})
        # Equality is plain ==: an array does not match a scalar it holds...
        london = {d["name"] for d in people.find({"city": "london"})}
        assert london == {"ada", "alan"}
        # ...an equal list probe matches it, and None still means "no city".
        nomad = people.find({"city": ["london", "paris"], "age": None})
        assert [d["name"] for d in nomad] == ["nomad"]
        assert people.count({"city": None}) == 0

    def test_in_query_uses_the_hash_index(self, people):
        people.create_index("city", "hash")
        assert people.count({"city": {"$in": ["london", "arlington"]}}) == 3
        assert people.count({"city": {"$in": ["paris"]}}) == 0

    def test_max_reads_the_sorted_index(self, people):
        people.create_index("age", "sorted")
        assert people.max("age") == 85
        people.delete_many({"name": "grace"})
        assert people.max("age") == 41
        people.delete_many({})
        assert people.max("age") is None

    def test_duplicate_index_noop(self, people):
        people.create_index("city", "hash")
        people.create_index("city", "hash")
        assert people.indexes()["hash"] == ["city"]

    def test_bad_index_kind(self, people):
        with pytest.raises(ValueError, match="kind"):
            people.create_index("city", "btree")

    def test_dotted_path_index(self):
        c = Collection("caps")
        c.create_index("payload.dataset", "hash")
        c.insert_one({"payload": {"dataset": "santander"}})
        c.insert_one({"payload": {"dataset": "china6"}})
        assert c.count({"payload.dataset": "santander"}) == 1


class TestDumpLoad:
    def test_round_trip(self, people):
        people.create_index("city", "hash")
        people.create_index("age", "sorted")
        snapshot = people.dump()
        restored = Collection.load(snapshot)
        assert restored.find() == people.find()
        assert restored.indexes() == people.indexes()
        # Indexes work after reload.
        assert restored.count({"city": "london"}) == 2

    def test_ids_continue_after_load(self, people):
        restored = Collection.load(people.dump())
        assert restored.insert_one({"name": "next"}) == 4


class TestUpdateIf:
    """Compare-and-set semantics (the lease-claiming primitive)."""

    def test_applies_when_expected_holds(self, people):
        doc_id = people.update_if(
            {"name": "ada"}, {"city": "london"}, {"city": "cambridge"}
        )
        assert doc_id is not None
        assert people.find_one({"name": "ada"})["city"] == "cambridge"

    def test_refuses_when_expected_fails(self, people):
        assert people.update_if(
            {"name": "ada"}, {"city": "paris"}, {"city": "cambridge"}
        ) is None
        assert people.find_one({"name": "ada"})["city"] == "london"

    def test_none_for_unmatched_query(self, people):
        assert people.update_if(
            {"name": "nobody"}, {"city": "london"}, {"city": "x"}
        ) is None

    def test_expected_supports_operators(self, people):
        assert people.update_if(
            {"name": "grace"}, {"age": {"$gte": 80}}, {"age": 86}
        ) is not None
        assert people.find_one({"name": "grace"})["age"] == 86

    def test_id_stays_immutable(self, people):
        with pytest.raises(QueryError, match="_id"):
            people.update_if({"name": "ada"}, {}, {"_id": 99})

    def test_indexes_follow_the_update(self, people):
        people.create_index("city", "hash")
        people.update_if({"name": "alan"}, {"city": "london"}, {"city": "york"})
        assert [d["name"] for d in people.find({"city": "york"})] == ["alan"]
        assert people.count({"city": "london"}) == 1
