"""WAL format v1 -> v2: the one-time migration on open.

``fixtures/wal_v1/`` is a store directory written by the last v1 release
(CRC-32C checksums, ``<name>.log`` segments): four collections with hash
and sorted indexes, updates, tombstones, a ``clear`` and an escaped
collection name.  ``expected.json`` holds what that release read back
from it.  Contracts:

* the fixture opens to exactly those documents, indexes and id counters,
  and every record payload survives the rewrite byte for byte;
* a ``kill -9`` at every ``mid-format-migration`` crash point (after each
  rewritten log, and just before the marker flip) converges to the same
  state, and no file is ever checked with the other format's checksum;
* only the migration reader runs CRC-32C — v2 stores never call it;
* a ``FORMAT`` marker this code does not know refuses to open.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store import thaw, wal
from repro.store.database import Database

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "wal_v1"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
V1_LOGS = sorted(p.name for p in (FIXTURE / "store.json.wal").glob("*.log"))


@pytest.fixture
def v1_store(tmp_path) -> Path:
    """A private copy of the v1 fixture; returns its store path."""
    shutil.copytree(FIXTURE / "store.json.wal", tmp_path / "store.json.wal")
    return tmp_path / "store.json"


def _state(database: Database) -> dict:
    return {
        name: {
            "documents": [thaw(doc) for doc in database[name].find()],
            "indexes": database[name].indexes(),
            "next_id": database[name].dump()["next_id"],
        }
        for name in database.collection_names()
    }


def _payloads(buffer: bytes) -> list[bytes]:
    """The raw JSON payload of every record frame in ``buffer``."""
    payloads, offset = [], 0
    while offset < len(buffer):
        length, _checksum = wal._HEADER.unpack_from(buffer, offset)
        start = offset + wal.HEADER_SIZE
        payloads.append(buffer[start:start + length])
        offset = start + length
    return payloads


def _assert_migrated(root: Path) -> None:
    assert wal.read_format(root) == wal.FORMAT_V2
    assert not list(root.glob("*.log"))
    for segment in root.glob("*.seg"):
        assert not wal.verify_log(segment)["torn"]


# -- the fixture ---------------------------------------------------------------


def test_fixture_is_a_v1_store():
    root = FIXTURE / "store.json.wal"
    assert wal.read_format(root) == wal.FORMAT_V1
    assert len(V1_LOGS) == 4
    for name in V1_LOGS:
        report = wal.verify_log(root / name, wal.format_checksum(wal.FORMAT_V1))
        assert not report["torn"] and report["records"] > 0


def test_v1_fixture_opens_and_reads_identically(v1_store):
    root = v1_store.parent / "store.json.wal"
    database = Database(v1_store)
    state = _state(database)
    assert state == EXPECTED
    # Same documents down to key order: the JSON texts are identical.
    assert json.dumps(state) == json.dumps(EXPECTED)
    _assert_migrated(root)
    # One v2 record per v1 record, each payload byte-identical.
    for name in V1_LOGS:
        v1 = (FIXTURE / "store.json.wal" / name).read_bytes()
        v2 = (root / name.replace(".log", ".seg")).read_bytes()
        assert _payloads(v2) == _payloads(v1)
    # Reopening the migrated store reads the same again; writes continue.
    reopened = Database(v1_store)
    assert _state(reopened) == EXPECTED
    reopened["caps"].insert_one({"dataset": "china6", "support": 1})
    assert Database(v1_store)["caps"].count() == len(EXPECTED["caps"]["documents"]) + 1


def test_migration_happens_once(v1_store):
    root = v1_store.parent / "store.json.wal"
    Database(v1_store)
    inodes = {p.name: p.stat().st_ino for p in root.glob("*.seg")}
    Database(v1_store)
    assert {p.name: p.stat().st_ino for p in root.glob("*.seg")} == inodes


def test_only_the_migration_reader_runs_crc32c(v1_store, monkeypatch, tmp_path):
    calls = []
    real = wal.crc32c
    monkeypatch.setattr(wal, "crc32c", lambda data, crc=0: calls.append(1) or real(data, crc))
    Database(v1_store)
    migrated = len(calls)
    assert migrated > 0
    # A v2 store opens, appends, compacts and reopens without CRC-32C.
    database = Database(tmp_path / "fresh.json")
    database["caps"].insert_one({"a": 1})
    database.compact_collection("caps")
    Database(tmp_path / "fresh.json")
    Database(v1_store)["caps"].insert_one({"a": 2})
    assert len(calls) == migrated


def test_torn_v1_tail_is_quarantined_then_migrated(v1_store):
    root = v1_store.parent / "store.json.wal"
    with open(root / "jobs.log", "ab") as handle:
        handle.write(b"\x07torn-v1-tail")
    assert _state(Database(v1_store)) == EXPECTED
    _assert_migrated(root)
    sidecars = list(root.glob("jobs.log.corrupt-*"))
    assert [p.read_bytes() for p in sidecars] == [b"\x07torn-v1-tail"]


def test_leftover_segment_wins_over_its_log(v1_store):
    """A ``.seg`` next to a ``.log`` is a finished rewrite whose unlink was
    lost: the segment is kept, the log deleted, never re-read."""
    root = v1_store.parent / "store.json.wal"
    database = Database(v1_store)
    (root / "caps.log").write_bytes(b"not a v1 log any more")
    (root / wal.FORMAT_MARKER).write_text(wal.FORMAT_V1 + "\n")
    (root / "caps.seg.compact-tmp").write_bytes(b"half a segment")
    assert _state(Database(v1_store)) == _state(database) == EXPECTED
    _assert_migrated(root)
    assert not list(root.glob("*.compact-tmp"))


def test_empty_marker_is_a_v1_first_open(tmp_path):
    """v1 wrote ``FORMAT`` in place: an empty one is a v1 first open killed
    mid-write, with no v2 segment behind it."""
    root = tmp_path / "store.json.wal"
    root.mkdir()
    (root / wal.FORMAT_MARKER).write_text("")
    Database(tmp_path / "store.json")["caps"].insert_one({"a": 1})
    _assert_migrated(root)
    assert Database(tmp_path / "store.json")["caps"].count() == 1


@pytest.mark.parametrize("marker", ["repro-store-wal-v999", "something else"])
def test_unknown_format_refuses_to_open(v1_store, marker):
    root = v1_store.parent / "store.json.wal"
    (root / wal.FORMAT_MARKER).write_text(marker + "\n")
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    with pytest.raises(wal.UnknownFormatError, match="unrecognised WAL format"):
        Database(v1_store)
    # Nothing was migrated, truncated or quarantined.
    after = {p.name: p.read_bytes() for p in root.iterdir() if p.name != "LOCK"}
    assert after == before


# -- kill -9 mid-migration -----------------------------------------------------

_OPEN = """
import sys
from repro.store.database import Database
Database(sys.argv[1])
"""


def _open_with_fault(store: Path, fault: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    env.pop("REPRO_JOBS_FAULT", None)
    env[wal.FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-c", _OPEN, str(store)],
        env=env, capture_output=True, timeout=60,
    ).returncode


def _assert_each_file_checks_in_its_own_format(root: Path) -> None:
    for fmt, suffix in wal.SEGMENT_SUFFIXES.items():
        for path in root.glob("*" + suffix):
            assert not wal.verify_log(path, wal.format_checksum(fmt))["torn"]


@pytest.mark.parametrize("nth", range(1, len(V1_LOGS) + 2))
def test_kill_mid_migration_converges(v1_store, nth):
    """Crash after the nth rewritten log (nth = logs + 1: just before the
    marker flip), crash again on the retry, then open for real."""
    root = v1_store.parent / "store.json.wal"
    assert _open_with_fault(v1_store, f"mid-format-migration:{nth}") == wal.FAULT_EXIT_CODE
    assert wal.read_format(root) == wal.FORMAT_V1  # the flip never happened
    assert len(list(root.glob("*.seg"))) == nth - (nth > len(V1_LOGS))
    _assert_each_file_checks_in_its_own_format(root)

    code = _open_with_fault(v1_store, "mid-format-migration:1")
    assert code in (0, wal.FAULT_EXIT_CODE)
    _assert_each_file_checks_in_its_own_format(root)

    assert _state(Database(v1_store)) == EXPECTED
    _assert_migrated(root)
    assert not list(root.glob("*.corrupt-*"))  # nothing was ever read as torn
