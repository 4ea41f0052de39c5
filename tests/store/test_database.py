"""Unit tests for the database (collections + JSON persistence)."""

from __future__ import annotations

import json

import pytest

from repro.store.database import Database


class TestCollections:
    def test_create_on_access(self):
        db = Database()
        c = db.collection("datasets")
        assert "datasets" in db
        assert db["datasets"] is c

    def test_names_sorted(self):
        db = Database()
        db["b"]
        db["a"]
        assert db.collection_names() == ["a", "b"]
        assert sorted(db) == ["a", "b"]

    def test_drop(self):
        db = Database()
        db["x"].insert_one({"a": 1})
        assert db.drop_collection("x")
        assert "x" not in db
        assert not db.drop_collection("x")

    def test_stats(self):
        db = Database()
        db["a"].insert_many([{}, {}])
        stats = db.stats()
        assert stats["collections"] == {"a": 2}
        assert stats["path"] is None


class TestPersistence:
    def test_save_and_reopen(self, tmp_path):
        path = tmp_path / "db.json"
        db = Database(path)
        db["caps"].create_index("key", "hash")
        db["caps"].insert_one({"key": "abc", "result": {"caps": [1, 2]}})

        reopened = Database.open(path)
        doc = reopened["caps"].find_one({"key": "abc"})
        assert doc is not None
        assert doc["result"]["caps"] == [1, 2]
        assert reopened["caps"].indexes()["hash"] == ["key"]

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "v999"}))
        with pytest.raises(ValueError, match="unrecognised"):
            Database(path)

    def test_missing_file_starts_empty(self, tmp_path):
        db = Database(tmp_path / "nothere.json")
        assert db.collection_names() == []

    def test_ids_survive_reload(self, tmp_path):
        path = tmp_path / "db.json"
        db = Database(path)
        db["x"].insert_one({"n": 1})
        db["x"].insert_one({"n": 2})
        db["x"].delete_many({"n": 2})
        reopened = Database.open(path)
        assert reopened["x"].insert_one({"n": 3}) == 3


class TestClose:
    def test_open_close_cycles_leak_no_descriptor(self, tmp_path):
        import gc
        import os

        def store_fds() -> list[str]:
            """This process's open descriptors on files of the store."""
            targets = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    targets.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:  # closed since the listing
                    pass
            return [t for t in targets if t.startswith(str(tmp_path))]

        path = tmp_path / "db.json"
        with Database(path) as database:
            database["a"].insert_one({"i": 1})
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            with Database(path) as database:
                assert database["a"].find_one({"i": 1}) is not None
        gc.collect()
        assert store_fds() == []
        # Flat, up to descriptors other threads of the test process hold.
        assert len(os.listdir("/proc/self/fd")) - before < 10

    def test_close_is_idempotent_and_a_section_reopens(self, tmp_path):
        path = tmp_path / "db.json"
        database = Database(path)
        database["a"].insert_one({"i": 1})
        database.close()
        database.close()
        database.refresh()  # a closed store serves what it holds
        database["a"].insert_one({"i": 2})  # the section reopens the log
        database.close()
        with Database(path) as reopened:
            assert [d["i"] for d in reopened["a"].find(sort="i")] == [1, 2]

    def test_memory_database_closes_as_a_no_op(self):
        database = Database()
        database["a"].insert_one({"i": 1})
        database.close()
        assert len(database["a"]) == 1
