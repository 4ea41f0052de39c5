"""The WAL store engine: record codec, commits, replay, tombstones, migration.

Complements ``test_store_properties.py`` (torn-tail exactness) and
``test_wal_faults.py`` (crash-point matrix): this file covers the
deterministic contracts — the versioned record checksums, one commit
record per critical section, what each op replays to, how two Database
instances sharing one path observe each other, and that ``repro store
upgrade`` imports a legacy snapshot without destroying it.
"""

from __future__ import annotations

import json
import os
import threading
import zlib

import pytest

from repro.store import upgrade, wal
from repro.store.compaction import CompactionThread, needs_compaction
from repro.store.database import Database
from tests.conftest import write_legacy_snapshot


# -- codec ---------------------------------------------------------------------


def test_crc32c_reference_vector():
    # The standard CRC-32C check value: crc of b"123456789".
    assert wal.crc32c(b"123456789") == 0xE3069283


def test_format_checksums():
    # v2 and v3 are stdlib CRC-32 (check value 0xCBF43926); v1 is CRC-32C.
    assert upgrade.format_checksum(wal.FORMAT_V3)(b"123456789") == 0xCBF43926
    assert upgrade.format_checksum(upgrade.FORMAT_V2)(b"123456789") == 0xCBF43926
    assert upgrade.format_checksum(upgrade.FORMAT_V1)(b"123456789") == 0xE3069283
    with pytest.raises(wal.UnknownFormatError):
        upgrade.format_checksum("repro-store-wal-v999")


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
    assert (root / "FORMAT").read_text().strip() == "repro-store-wal-v3"
    assert sorted(p.name for p in root.iterdir()) == ["FORMAT", "LOCK", "journal"]
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
    """Logs written by earlier builds may hold a ``clear`` record; the
    upgrade still empties the collection (and keeps its ids burned)."""
    root = tmp_path / "store.json.wal"
    root.mkdir()
    records = [{"op": "put", "doc": {"_id": i, "i": i}} for i in range(1, 6)]
    records.append({"op": "clear"})
    (root / "caps.seg").write_bytes(b"".join(map(wal.encode_record, records)))
    (root / "FORMAT").write_text(upgrade.FORMAT_V2 + "\n")
    upgrade.upgrade(tmp_path / "store.json")
    reopened = Database(tmp_path / "store.json")
    assert reopened["caps"].find() == []
    assert reopened["caps"].insert_one({"i": 6}) == 6
    assert Database(tmp_path / "store.json")["caps"].count() == 1


def test_collection_names_needing_escaping(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["weird/name with spaces"].insert_one({"a": 1})
    reopened = Database(path)
    assert reopened["weird/name with spaces"].find_one({"a": 1}) is not None


def test_drop_collection_removes_the_log(tmp_path):
    """A drop is a journaled op: peers and reopens lose the collection."""
    path = tmp_path / "store.json"
    db = Database(path)
    peer = Database(path)
    db["caps"].insert_one({"a": 1})
    peer.refresh()
    assert "caps" in peer
    assert db.drop_collection("caps")
    peer.refresh()
    assert "caps" not in peer
    assert "caps" not in Database(path)
    db["caps"].insert_one({"a": 2})  # recreated after the drop, in order
    assert [d["a"] for d in Database(path)["caps"].find()] == [2]


def test_a_drop_folded_away_by_a_peer_compaction_still_drops(tmp_path):
    """The rewritten log holds neither the dropped collection nor its drop
    op; a peer that refreshes across the rewrite loses it all the same."""
    path = tmp_path / "store.json"
    db = Database(path)
    peer = Database(path)
    db["caps"].insert_one({"a": 1})
    db["kept"].insert_one({"b": 1})
    peer.refresh()
    assert db.drop_collection("caps")
    db.compact()
    peer.refresh()
    fresh = Database(path)
    assert "caps" not in peer and "caps" not in fresh
    assert peer.collection_names() == fresh.collection_names() == ["kept"]
    assert peer.stats()["collections"] == fresh.stats()["collections"]


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


def test_refresh_is_one_stat_of_the_log(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    writer = Database(path)
    reader = Database(path)
    writer["caps"].insert_one({"a": 1})
    stats = []
    real_stat = os.stat
    monkeypatch.setattr(os, "stat", lambda p, *a, **k: stats.append(p) or real_stat(p, *a, **k))
    monkeypatch.setattr(os, "listdir", lambda *a: pytest.fail("refresh listed the root"))
    reader.refresh()
    reader.refresh()
    monkeypatch.undo()
    assert stats == [tmp_path / "store.json.wal" / "journal"] * 2
    assert reader["caps"].count() == 1


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


# -- one commit per section ---------------------------------------------------


def _count_commits(monkeypatch):
    """Count CollectionLog.append / effective sync calls."""
    calls = {"append": 0, "sync": 0}
    append, sync = wal.CollectionLog.append, wal.CollectionLog.sync

    def counting_append(log, record):
        calls["append"] += 1
        return append(log, record)

    def counting_sync(log):
        calls["sync"] += log.dirty
        return sync(log)

    monkeypatch.setattr(wal.CollectionLog, "append", counting_append)
    monkeypatch.setattr(wal.CollectionLog, "sync", counting_sync)
    return calls


def test_a_section_is_one_record_and_one_fsync(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    db = Database(path)
    calls = _count_commits(monkeypatch)
    with db.exclusive():
        for name in ("a", "b", "c"):
            db[name].create_index("k", "hash")
            db[name].insert_many([{"k": i} for i in range(3)])
        db["a"].update_one({"k": 0}, {"v": 1})
        db["b"].delete_many({"k": 1})
    assert calls == {"append": 1, "sync": 1}
    monkeypatch.undo()
    (record,) = wal.decode_records(
        (tmp_path / "store.json.wal" / "journal").read_bytes()
    )[0]
    # Ops grouped under their collection, in first-write order; a put is
    # the document itself, every other op a list naming its kind.
    assert list(record) == ["a", "b", "c"]
    kinds = {
        name: [op[0] if isinstance(op, list) else "put" for op in ops]
        for name, ops in record.items()
    }
    assert kinds["a"] == ["index", "put", "put", "put", "put"]
    assert kinds["b"] == ["index", "put", "put", "put", "del"]
    assert record["b"][-1] == ["del", [2]]
    reopened = Database(path)
    for name in ("a", "b", "c"):
        assert reopened[name].find() == db[name].find()


def test_a_section_that_raises_still_commits_what_it_applied(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    with pytest.raises(RuntimeError):
        with db.exclusive():
            db["a"].insert_one({"i": 1})
            db["b"].insert_one({"i": 2})
            raise RuntimeError("caller failed mid-section")
    reopened = Database(path)
    assert [d["i"] for d in reopened["a"].find()] == [1]
    assert [d["i"] for d in reopened["b"].find()] == [2]


def test_after_commit_runs_once_the_section_is_durable(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    seen = []
    with db.exclusive():
        db["a"].insert_one({"i": 1})
        db.after_commit(lambda: seen.append(Database(path)["a"].count()))
        assert seen == []
    assert seen == [1]  # a fresh reader already replays the commit
    db.after_commit(lambda: seen.append("now"))  # outside a section: at once
    assert seen == [1, "now"]


# -- snapshot import (repro store upgrade) -------------------------------------


def _legacy_store(tmp_path, documents):
    path = tmp_path / "store.json"
    legacy = Database()
    legacy["caps"].create_index("i", "hash")
    for document in documents:
        legacy["caps"].insert_one(dict(document))
    write_legacy_snapshot(legacy, path)
    return path, legacy


def test_migration_round_trip_preserves_contents(tmp_path):
    documents = [{"i": i, "v": "x" * i} for i in range(4)]
    path, legacy = _legacy_store(tmp_path, documents)
    original = path.read_bytes()

    upgrade.upgrade(path)
    migrated = Database(path)
    assert migrated["caps"].find() == legacy["caps"].find()
    assert migrated["caps"].find({"i": 2}) == legacy["caps"].find({"i": 2})
    # The original snapshot survives byte for byte, archived.
    assert (tmp_path / "store.json.pre-wal").read_bytes() == original
    assert not (tmp_path / "store.json.wal" / "MIGRATED").exists()


def test_migration_happens_once(tmp_path):
    path, _legacy = _legacy_store(tmp_path, [{"i": 1}])
    upgrade.upgrade(path)
    Database(path)["caps"].insert_one({"i": 2})
    # A second upgrade and open must replay the WAL, not re-import the
    # snapshot (which would resurrect pre-WAL state and duplicate documents).
    upgrade.upgrade(path)
    reopened = Database(path)
    assert reopened["caps"].count() == 2


def test_upgrade_archives_the_snapshot(tmp_path):
    path, _legacy = _legacy_store(tmp_path, [{"i": 1}])
    original = path.read_bytes()
    upgrade.upgrade(path)
    assert not path.exists()
    assert (tmp_path / "store.json.pre-wal").read_bytes() == original
    # The store reopens, and compacts, from the WAL alone.
    db = Database(path)
    db.compact()
    assert Database(path)["caps"].count() == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "store.json.pre-wal", "store.json.wal",
    ]


def test_corrupt_snapshot_is_quarantined_not_fatal(tmp_path):
    path = tmp_path / "store.json"
    path.write_text("{not json", encoding="utf-8")
    upgrade.upgrade(path)
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
    with pytest.raises(ValueError, match="unrecognised snapshot format"):
        upgrade.upgrade(path)


# -- torn-tail quarantine ------------------------------------------------------


def test_torn_tail_is_quarantined_and_truncated(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    log_path = tmp_path / "store.json.wal" / "journal"
    clean = log_path.read_bytes()
    with open(log_path, "ab") as handle:
        handle.write(b"\x99garbage-tail")

    reopened = Database(path)
    assert reopened["caps"].count() == 1
    assert log_path.read_bytes() == clean  # truncated back to the prefix
    sidecars = list((tmp_path / "store.json.wal").glob("journal.corrupt-*"))
    assert len(sidecars) == 1
    assert sidecars[0].read_bytes() == b"\x99garbage-tail"


def test_verify_log_reports_torn_bytes(tmp_path):
    path = tmp_path / "store.json"
    Database(path)["caps"].insert_one({"a": 1})
    log_path = tmp_path / "store.json.wal" / "journal"
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
    db.compact()  # the log rewrite loops too
    caps.insert_one({"i": 99})
    monkeypatch.undo()

    assert not wal.verify_log(tmp_path / "store.json.wal" / "journal")["torn"]
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
    assert not wal.verify_log(tmp_path / "store.json.wal" / "journal")["torn"]
    assert [d["i"] for d in Database(path)["caps"].find()] == [0, 2]


# -- compaction ----------------------------------------------------------------


def test_compaction_drops_dead_weight(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    caps = db["caps"]
    for i in range(20):
        caps.insert_one({"i": i})
    caps.delete_many({"i": {"$lte": 14}})
    db["other"].insert_one({"j": 1})
    before = (tmp_path / "store.json.wal" / "journal").stat().st_size
    result = db.compact()
    assert result["compacted"]
    assert result["before_bytes"] == before
    assert result["after_bytes"] < before
    reopened = Database(path)
    assert reopened["caps"].find() == caps.find()
    assert reopened["other"].find() == db["other"].find()
    # Burned ids stay burned across the rewrite.
    assert reopened["caps"].insert_one({"i": 99}) == 21


def test_needs_compaction_thresholds():
    mib = 1 << 20
    assert not needs_compaction(mib // 2, 0)  # too short to bother
    assert needs_compaction(mib, 0)  # long, live size unknown: measure it
    assert not needs_compaction(3 * mib, 2 * mib)  # mostly live
    assert needs_compaction(4 * mib, 2 * mib)  # dead bytes match live ones
    assert needs_compaction(500, 10, min_bytes=100)


def test_compaction_thread_sweeps(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    for i in range(100):
        db["caps"].insert_one({"i": i})
    db["caps"].delete_many({"i": {"$lte": 97}})
    compactor = CompactionThread(db, interval_seconds=3600, min_bytes=10)
    results = compactor.sweep()  # run one pass synchronously
    assert [r["compacted"] for r in results] == [True]
    assert db.stats()["wal"]["compactions"] == 1
    assert compactor.live_bytes == results[0]["after_bytes"]
    assert compactor.sweep() == []  # the rewritten log is all live state
    compactor.stop()


def test_compaction_thread_waits_for_dead_bytes_to_match_live(tmp_path):
    """Churn on a small collection does not rewrite a large live state
    until the churn has written as many bytes as that state holds."""
    path = tmp_path / "store.json"
    db = Database(path)
    db["datasets"].insert_one({"blob": "x" * 20_000})
    job = db["jobs"].insert_one({"state": "queued", "tick": 0})
    compactor = CompactionThread(db, interval_seconds=3600, min_bytes=1000)
    assert compactor.sweep() == []  # measured: the log is all live state
    assert compactor.live_bytes > 20_000
    assert db.stats()["wal"]["compactions"] == 0
    tick = 0
    while db.stats()["wal"]["log_bytes"] < 2 * compactor.live_bytes - 100:
        tick += 1
        db["jobs"].update_one({"_id": job}, {"tick": tick})
        assert compactor.sweep() == []
    while not compactor.sweep():
        tick += 1
        db["jobs"].update_one({"_id": job}, {"tick": tick})
    assert db.stats()["wal"]["compactions"] == 1
    assert Database(path)["jobs"].find_one({"_id": job})["tick"] == tick


def test_compact_min_ratio_keeps_a_log_that_would_not_shrink_enough(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    journal = tmp_path / "store.json.wal" / "journal"
    before = journal.read_bytes()
    result = db.compact(min_ratio=2.0)
    assert not result["compacted"]
    assert result["after_bytes"] > 0
    assert journal.read_bytes() == before
    assert db.stats()["wal"]["compactions"] == 0
    assert list(journal.parent.glob("*.compact-tmp")) == []


def test_compaction_keeps_commits_made_while_it_rewrites(tmp_path, monkeypatch):
    """The rewrite runs outside the lock; commits landing meanwhile (here a
    peer's, made while the snapshot is being encoded) follow it into the
    new log."""
    from repro.store import database as database_module

    path = tmp_path / "store.json"
    db = Database(path)
    peer = Database(path)
    for i in range(10):
        db["caps"].insert_one({"i": i})
    db["caps"].delete_many({"i": {"$lte": 4}})
    real_encode = database_module._encode_state

    def encode_while_a_peer_commits(dumps):
        encoded = real_encode(dumps)
        with peer.exclusive():
            peer["caps"].insert_one({"i": 100})
            peer["jobs"].insert_one({"j": 1})
        return encoded

    monkeypatch.setattr(database_module, "_encode_state", encode_while_a_peer_commits)
    assert db.compact()["compacted"]
    monkeypatch.undo()
    assert [d["i"] for d in db["caps"].find()] == [5, 6, 7, 8, 9, 100]
    fresh = Database(path)
    assert fresh["caps"].find() == db["caps"].find()
    assert fresh["jobs"].find() == db["jobs"].find() == peer["jobs"].find()
    assert db["caps"].insert_one({"i": 101}) == 12  # ids keep counting
    assert fresh.stats()["wal"]["records"] == db.stats()["wal"]["records"] - 1


def test_a_rewrite_a_peer_overtook_is_abandoned(tmp_path, monkeypatch):
    from repro.store import database as database_module

    path = tmp_path / "store.json"
    db = Database(path)
    peer = Database(path)
    for i in range(10):
        db["caps"].insert_one({"i": i})
    db["caps"].delete_many({"i": {"$lte": 4}})
    real_encode = database_module._encode_state

    def encode_while_a_peer_compacts(dumps):
        encoded = real_encode(dumps)
        monkeypatch.setattr(database_module, "_encode_state", real_encode)
        assert peer.compact()["compacted"]
        return encoded

    monkeypatch.setattr(database_module, "_encode_state", encode_while_a_peer_compacts)
    result = db.compact()
    assert not result["compacted"]
    assert db.stats()["wal"]["compactions"] == 0
    assert list((tmp_path / "store.json.wal").glob("*.compact-tmp")) == []
    db.refresh()
    assert db["caps"].find() == Database(path)["caps"].find()


def test_stats_poll_safely_while_compaction_swaps_the_log(tmp_path, monkeypatch):
    """``stats()`` (the admin endpoint, the compaction trigger) takes no
    lock.  A poll from another thread landing while a compaction has the
    old log's fd closed and the new one not yet open must still answer."""
    path = tmp_path / "store.json"
    db = Database(path)
    for i in range(50):
        db["caps"].insert_one({"i": i, "pad": "x" * 100})
    db["caps"].delete_many({"i": {"$lt": 40}})
    polls: list[int] = []
    errors: list[BaseException] = []
    pollers: list[threading.Thread] = []
    real_open = wal.CollectionLog._open_fd

    def poll() -> None:
        try:
            polls.append(db.stats()["wal"]["log_bytes"])
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def open_after_a_poll(self) -> None:
        poller = threading.Thread(target=poll)
        poller.start()
        poller.join(timeout=1.0)
        pollers.append(poller)
        real_open(self)

    monkeypatch.setattr(wal.CollectionLog, "_open_fd", open_after_a_poll)
    for _ in range(3):
        assert db.compact()["compacted"]
    monkeypatch.undo()
    for poller in pollers:
        poller.join()
    assert errors == []
    assert len(polls) == 3 and all(size > 0 for size in polls)


def test_stats_expose_wal_counters(tmp_path):
    path = tmp_path / "store.json"
    db = Database(path)
    db["caps"].insert_one({"a": 1})
    stats = db.stats()
    assert stats["engine"] == "wal"
    entry = stats["wal"]
    assert entry["records"] == 1
    assert entry["live_documents"] == 1
    assert entry["log_bytes"] > 0
