"""The WAL store engine: record codec, replay, tombstones, migration.

Complements ``test_store_properties.py`` (torn-tail exactness) and
``test_wal_faults.py`` (crash-point matrix): this file covers the
deterministic contracts — the versioned record checksums, what each record
op replays to, how two Database instances sharing one path observe each
other, and that legacy snapshots migrate without being destroyed.
"""

from __future__ import annotations

import json
import os
import zlib

import pytest

from repro.store import wal
from repro.store.compaction import CompactionThread, needs_compaction
from repro.store.database import Database


# -- codec ---------------------------------------------------------------------


def test_crc32c_reference_vector():
    # The standard CRC-32C check value: crc of b"123456789".
    assert wal.crc32c(b"123456789") == 0xE3069283


def test_format_checksums():
    # v2 is stdlib CRC-32 (check value 0xCBF43926); v1 is CRC-32C.
    assert wal.format_checksum(wal.FORMAT_V2)(b"123456789") == 0xCBF43926
    assert wal.format_checksum(wal.FORMAT_V1)(b"123456789") == 0xE3069283
    with pytest.raises(wal.UnknownFormatError):
        wal.format_checksum("repro-store-wal-v999")


def test_records_only_decode_under_their_own_checksum():
    buffer = wal.encode_record({"op": "clear"}, checksum=wal.crc32c)
    assert wal.decode_records(buffer, checksum=wal.crc32c)[0] == [{"op": "clear"}]
    assert wal.decode_records(buffer) == ([], 0, True)


def test_crc32c_streaming_equals_one_shot():
    data = b"miscela-v wal record"
    split = wal.crc32c(data[8:], wal.crc32c(data[:8]))
    assert split == wal.crc32c(data)


def test_encode_decode_round_trip():
    records = [{"op": "put", "doc": {"_id": 1, "v": "x"}}, {"op": "del", "ids": [1]}]
    buffer = b"".join(wal.encode_record(r) for r in records)
    decoded, end, torn = wal.decode_records(buffer)
    assert decoded == records
    assert end == len(buffer)
    assert not torn


def test_decode_rejects_insane_length_without_allocating():
    header = wal._HEADER.pack(wal.MAX_RECORD_BYTES + 1, 0)
    decoded, end, torn = wal.decode_records(header + b"x" * 64)
    assert decoded == [] and end == 0 and torn


def test_decode_rejects_non_dict_payload():
    payload = json.dumps([1, 2]).encode()
    buffer = wal._HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    decoded, _end, torn = wal.decode_records(buffer)
    assert decoded == [] and torn


# -- engine basics -------------------------------------------------------------


def test_wal_layout_and_format_marker(tmp_path):
    path = tmp_path / "store.json"
    Database(path)["caps"].insert_one({"a": 1})
    root = tmp_path / "store.json.wal"
    assert (root / "FORMAT").read_text().strip() == "repro-store-wal-v2"
    assert (root / "caps.seg").exists()
    assert not list(root.glob("*.log"))
    assert not path.exists()  # no legacy snapshot is written by the WAL engine


def test_reopen_replays_everything(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    caps = db["caps"]
    caps.create_index("i", "hash")
    for i in range(3):
        caps.insert_one({"i": i})
    caps.update_one({"i": 1}, {"v": "updated"})
    caps.delete_many({"i": 0})

    reopened = Database(path)
    assert reopened["caps"].find() == caps.find()
    # The index definition itself is a log record.
    assert reopened["caps"].find({"i": 1}) == [caps.find_one({"i": 1})]


def test_tombstones_pin_the_id_space(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    second = db["caps"].insert_one({"a": 2})
    db["caps"].delete_many({"_id": second})

    reopened = Database(path)
    # A dead id is never reused — the tombstone pins the counter past it.
    assert reopened["caps"].insert_one({"a": 3}) == 3


def test_clear_is_one_record(tmp_path):
    """Logs written by earlier builds may hold a ``clear`` record; replay
    still empties the collection (and keeps its ids burned)."""
    path = tmp_path / "store.json"
    db = Database(path)
    for i in range(5):
        db["caps"].insert_one({"i": i})
    with db.exclusive():
        db._wal_append("caps", {"op": "clear"})
    reopened = Database(path)
    assert reopened["caps"].find() == []
    assert reopened["caps"].insert_one({"i": 5}) == 6


def test_collection_names_needing_escaping(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["weird/name with spaces"].insert_one({"a": 1})
    reopened = Database(path)
    assert reopened["weird/name with spaces"].find_one({"a": 1}) is not None


def test_drop_collection_removes_the_log(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    db.drop_collection("caps")
    assert not (tmp_path / "store.json.wal" / "caps.seg").exists()
    assert "caps" not in Database(path)


# -- cross-instance visibility -------------------------------------------------


def test_refresh_sees_peer_appends(tmp_path):
    path = tmp_path / "store.json"
    writer = Database(path)
    reader = Database(path)
    writer["caps"].insert_one({"a": 1})
    reader.refresh()
    assert reader["caps"].find_one({"a": 1}) is not None


def test_refresh_sees_peer_tombstones(tmp_path):
    path = tmp_path / "store.json"
    writer = Database(path)
    reader = Database(path)
    doc_id = writer["caps"].insert_one({"a": 1})
    reader.refresh()
    writer["caps"].delete_many({"_id": doc_id})
    reader.refresh()
    assert reader["caps"].find() == []


def test_refresh_survives_peer_compaction(tmp_path):
    path = tmp_path / "store.json"
    writer = Database(path)
    reader = Database(path)
    for i in range(10):
        writer["caps"].insert_one({"i": i})
    writer["caps"].delete_many({"i": {"$lte": 4}})
    reader.refresh()
    writer.compact()
    writer["caps"].insert_one({"i": 99})
    reader.refresh()  # inode changed: rebuild from the fresh segment
    assert reader["caps"].find() == writer["caps"].find()


def test_exclusive_serializes_two_instances(tmp_path):
    path = tmp_path / "store.json"
    a = Database(path)
    b = Database(path)
    with a.exclusive():
        a["caps"].insert_one({"from": "a"})
    with b.exclusive():  # entry replays a's append
        assert b["caps"].find_one({"from": "a"}) is not None
        b["caps"].insert_one({"from": "b"})
    with a.exclusive():
        assert a["caps"].count() == 2


# -- migration -----------------------------------------------------------------


def _legacy_store(tmp_path, documents):
    path = tmp_path / "store.json"
    legacy = Database()
    legacy["caps"].create_index("i", "hash")
    for document in documents:
        legacy["caps"].insert_one(dict(document))
    legacy.save(path)
    return path, legacy


def test_migration_round_trip_preserves_contents(tmp_path):
    documents = [{"i": i, "v": "x" * i} for i in range(4)]
    path, legacy = _legacy_store(tmp_path, documents)
    original = path.read_bytes()

    migrated = Database(path)  # migrates on first open
    assert migrated["caps"].find() == legacy["caps"].find()
    assert migrated["caps"].find({"i": 2}) == legacy["caps"].find({"i": 2})
    # Satellite: the original snapshot is byte-untouched until compaction.
    assert path.read_bytes() == original
    assert (tmp_path / "store.json.wal" / "MIGRATED").exists()


def test_migration_happens_once(tmp_path):
    path, _legacy = _legacy_store(tmp_path, [{"i": 1}])
    Database(path)["caps"].insert_one({"i": 2})
    # A second open must replay the WAL, not re-import the snapshot
    # (which would resurrect pre-WAL state and duplicate documents).
    reopened = Database(path)
    assert reopened["caps"].count() == 2


def test_first_compaction_archives_the_snapshot(tmp_path):
    path, _legacy = _legacy_store(tmp_path, [{"i": 1}])
    db = Database(path)
    original = path.read_bytes()
    db.compact()
    assert not path.exists()
    assert (tmp_path / "store.json.pre-wal").read_bytes() == original
    # The store reopens from WAL segments alone.
    assert Database(path)["caps"].count() == 1


def test_corrupt_snapshot_is_quarantined_not_fatal(tmp_path):
    path = tmp_path / "store.json"
    path.write_text("{not json", encoding="utf-8")
    db = Database(path)
    assert db["caps"].count() == 0
    quarantined = list(tmp_path.glob("store.json.corrupt-*"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text(encoding="utf-8") == "{not json"


def test_unrecognised_format_still_raises(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"format": "repro-store-v999", "collections": {}}))
    with pytest.raises(ValueError, match="unrecognised"):
        Database(path)


# -- torn-tail quarantine ------------------------------------------------------


def test_torn_tail_is_quarantined_and_truncated(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    log_path = tmp_path / "store.json.wal" / "caps.seg"
    clean = log_path.read_bytes()
    with open(log_path, "ab") as handle:
        handle.write(b"\x99garbage-tail")

    reopened = Database(path)
    assert reopened["caps"].count() == 1
    assert log_path.read_bytes() == clean  # truncated back to the prefix
    sidecars = list((tmp_path / "store.json.wal").glob("caps.seg.corrupt-*"))
    assert len(sidecars) == 1
    assert sidecars[0].read_bytes() == b"\x99garbage-tail"


def test_verify_log_reports_torn_bytes(tmp_path):
    path = tmp_path / "store.json"
    Database(path)["caps"].insert_one({"a": 1})
    log_path = tmp_path / "store.json.wal" / "caps.seg"
    clean_size = log_path.stat().st_size
    with open(log_path, "ab") as handle:
        handle.write(b"xx")
    report = wal.verify_log(log_path)
    assert report["records"] == 1
    assert report["valid_bytes"] == clean_size
    assert report["torn_bytes"] == 2
    assert report["torn"]


# -- short writes --------------------------------------------------------------


def test_short_writes_still_land_every_record(tmp_path, monkeypatch):
    real_write = os.write
    # write(2) may take fewer bytes than asked; take at most 7 per call.
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    path = tmp_path / "store.json"
    db = Database(path)
    caps = db["caps"]
    caps.create_index("i", "hash")
    for i in range(20):
        caps.insert_one({"i": i, "pad": "x" * i})
    caps.delete_many({"i": {"$lt": 5}})
    db.compact_collection("caps")  # the segment rewrite loops too
    caps.insert_one({"i": 99})
    monkeypatch.undo()

    assert not wal.verify_log(tmp_path / "store.json.wal" / "caps.seg")["torn"]
    assert Database(path)["caps"].find() == caps.find()


def test_failed_append_is_cut_back_so_later_appends_replay(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"i": 0})
    real_write = os.write
    calls = []

    def disk_fills_midway(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[:5])  # half a header reaches the disk
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", disk_fills_midway)
    with pytest.raises(OSError):
        db["caps"].insert_one({"i": 1})
    monkeypatch.undo()
    db["caps"].insert_one({"i": 2})

    # The partial record was cut back off, so the later append replays.
    assert not wal.verify_log(tmp_path / "store.json.wal" / "caps.seg")["torn"]
    assert [d["i"] for d in Database(path)["caps"].find()] == [0, 2]


# -- compaction ----------------------------------------------------------------


def test_compaction_drops_dead_weight(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    caps = db["caps"]
    for i in range(20):
        caps.insert_one({"i": i})
    caps.delete_many({"i": {"$lte": 14}})
    before = (tmp_path / "store.json.wal" / "caps.seg").stat().st_size
    result = db.compact_collection("caps")
    assert result["compacted"]
    assert result["after_bytes"] < before
    assert Database(path)["caps"].find() == caps.find()


def test_needs_compaction_thresholds():
    assert not needs_compaction(10, 1)  # too short to bother
    assert not needs_compaction(100, 50)  # mostly live
    assert needs_compaction(500, 10)  # dead weight dominates


def test_compaction_thread_sweeps(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    for i in range(100):
        db["caps"].insert_one({"i": i})
    db["caps"].delete_many({"i": {"$lte": 97}})
    compactor = CompactionThread(db, interval_seconds=3600, min_records=10)
    results = compactor.sweep()  # run one pass synchronously
    assert [r["collection"] for r in results if r["compacted"]] == ["caps"]
    assert db.stats()["wal"]["caps"]["compactions"] == 1
    compactor.stop()


def test_stats_expose_wal_counters(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    stats = db.stats()
    assert stats["engine"] == "wal"
    entry = stats["wal"]["caps"]
    assert entry["records"] == 1
    assert entry["live_documents"] == 1
    assert entry["segment_bytes"] > 0
