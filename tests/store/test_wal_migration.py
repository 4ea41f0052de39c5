"""Older store layouts -> WAL format v3: the one-time migration on open.

Three older layouts open as the v3 store log, each through the same step:

* ``fixtures/wal_v1/`` is a store directory written by the last v1 release
  (CRC-32C checksums, ``<name>.log`` logs): four collections with hash
  and sorted indexes, updates, tombstones, a ``clear`` and an escaped
  collection name;
* ``fixtures/wal_v2/`` is a store directory written by the last v2 release
  (``zlib.crc32``, ``<name>.seg`` segments): hash and sorted indexes,
  updates, a compare-and-set, tombstones, a compacted segment, a
  two-collection section and an escaped collection name;
* a legacy ``repro-store-v1`` JSON snapshot, built in the test from the v2
  fixture's expected contents.

Each fixture's ``expected.json`` holds what its release read back from it.
Contracts:

* every layout opens to exactly those documents, indexes and id counters,
  and every live document survives the rewrite byte for byte;
* a ``kill -9`` at every ``mid-format-migration`` crash point (before the
  marker flip, then before each old file's unlink) converges to the same
  state, and no file is ever checked with another format's checksum;
* only the migration reader runs CRC-32C — v3 stores never call it;
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

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE = FIXTURES / "wal_v1"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
EXPECTED_V2 = json.loads((FIXTURES / "wal_v2" / "expected.json").read_text())
V1_LOGS = sorted(p.name for p in (FIXTURE / "store.json.wal").glob("*.log"))
V2_SEGMENTS = sorted(
    p.name for p in (FIXTURES / "wal_v2" / "store.json.wal").glob("*.seg")
)
LAYOUTS = ("wal_v1", "wal_v2", "snapshot")


@pytest.fixture
def v1_store(tmp_path) -> Path:
    """A private copy of the v1 fixture; returns its store path."""
    shutil.copytree(FIXTURE / "store.json.wal", tmp_path / "store.json.wal")
    return tmp_path / "store.json"


def _older_store(tmp_path: Path, layout: str) -> tuple[Path, dict]:
    """A private copy of one older layout: (store path, expected state)."""
    if layout == "snapshot":
        snapshot = {
            "format": "repro-store-v1",
            "collections": [
                {"name": name, **entry} for name, entry in EXPECTED_V2.items()
            ],
        }
        (tmp_path / "store.json").write_text(json.dumps(snapshot))
        return tmp_path / "store.json", EXPECTED_V2
    shutil.copytree(
        FIXTURES / layout / "store.json.wal", tmp_path / "store.json.wal"
    )
    return tmp_path / "store.json", EXPECTED if layout == "wal_v1" else EXPECTED_V2


def _state(database: Database) -> dict:
    return {
        name: {
            "documents": [thaw(doc) for doc in database[name].find()],
            "indexes": database[name].indexes(),
            "next_id": database[name].dump()["next_id"],
        }
        for name in database.collection_names()
    }


def _assert_migrated(root: Path) -> None:
    assert wal.read_format(root) == wal.FORMAT_V3
    assert not list(root.glob("*.log")) and not list(root.glob("*.seg"))
    assert not wal.verify_log(root / wal.LOG_NAME)["torn"]


# -- the fixtures --------------------------------------------------------------


def test_fixture_is_a_v1_store():
    root = FIXTURE / "store.json.wal"
    assert wal.read_format(root) == wal.FORMAT_V1
    assert len(V1_LOGS) == 4
    for name in V1_LOGS:
        report = wal.verify_log(root / name, wal.format_checksum(wal.FORMAT_V1))
        assert not report["torn"] and report["records"] > 0


def test_fixture_is_a_v2_store():
    root = FIXTURES / "wal_v2" / "store.json.wal"
    assert wal.read_format(root) == wal.FORMAT_V2
    assert len(V2_SEGMENTS) == 4
    for name in V2_SEGMENTS:
        report = wal.verify_log(root / name, wal.format_checksum(wal.FORMAT_V2))
        assert not report["torn"] and report["records"] > 0


def test_v1_fixture_opens_and_reads_identically(v1_store):
    root = v1_store.parent / "store.json.wal"
    database = Database(v1_store)
    state = _state(database)
    assert state == EXPECTED
    # Same documents down to key order: the JSON texts are identical.
    assert json.dumps(state) == json.dumps(EXPECTED)
    _assert_migrated(root)
    # Every live document is one put op in the v3 log, byte-identical.
    puts: dict[str, list[str]] = {}
    for record in wal.decode_records((root / wal.LOG_NAME).read_bytes())[0]:
        for name, ops in record.items():
            puts.setdefault(name, []).extend(
                json.dumps(op) for op in ops if isinstance(op, dict)
            )
    assert puts == {
        name: [json.dumps(doc) for doc in entry["documents"]]
        for name, entry in EXPECTED.items()
        if entry["documents"]
    }
    # Reopening the migrated store reads the same again; writes continue.
    reopened = Database(v1_store)
    assert _state(reopened) == EXPECTED
    reopened["caps"].insert_one({"dataset": "china6", "support": 1})
    assert Database(v1_store)["caps"].count() == len(EXPECTED["caps"]["documents"]) + 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_each_older_layout_opens_as_v3_with_identical_contents(tmp_path, layout):
    store, expected = _older_store(tmp_path, layout)
    root = tmp_path / "store.json.wal"
    assert json.dumps(_state(Database(store))) == json.dumps(expected)
    _assert_migrated(root)
    assert json.dumps(_state(Database(store))) == json.dumps(expected)
    # A legacy snapshot is kept until the first compaction archives it.
    assert (root / "MIGRATED").exists() == (layout == "snapshot")
    assert store.exists() == (layout == "snapshot")


def test_migration_happens_once(v1_store):
    root = v1_store.parent / "store.json.wal"
    Database(v1_store)
    inode = (root / wal.LOG_NAME).stat().st_ino
    Database(v1_store)
    assert (root / wal.LOG_NAME).stat().st_ino == inode


def test_only_the_migration_reader_runs_crc32c(v1_store, monkeypatch, tmp_path):
    calls = []
    real = wal.crc32c
    monkeypatch.setattr(wal, "crc32c", lambda data, crc=0: calls.append(1) or real(data, crc))
    Database(v1_store)
    migrated = len(calls)
    assert migrated > 0
    # A v3 store opens, commits, compacts and reopens without CRC-32C.
    database = Database(tmp_path / "fresh.json")
    database["caps"].insert_one({"a": 1})
    database.compact()
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
    """A ``.seg`` next to a ``.log`` is a finished v1 -> v2 rewrite whose
    unlink was lost: the segment is read, the log never is, and both go."""
    root = v1_store.parent / "store.json.wal"
    records = wal.decode_records(
        (root / "caps.log").read_bytes(),
        checksum=wal.format_checksum(wal.FORMAT_V1),
    )[0]
    (root / "caps.seg").write_bytes(
        b"".join(wal.encode_record(record) for record in records)
    )
    (root / "caps.log").write_bytes(b"not a v1 log any more")
    (root / "caps.seg.compact-tmp").write_bytes(b"half a segment")
    assert _state(Database(v1_store)) == EXPECTED
    _assert_migrated(root)
    assert not list(root.glob("*.compact-tmp"))
    assert not list(root.glob("*.corrupt-*"))  # the stale log was never read


def test_empty_marker_is_a_v1_first_open(tmp_path):
    """v1 wrote ``FORMAT`` in place: an empty one is a v1 first open killed
    mid-write, with nothing behind it."""
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
    if (root / wal.LOG_NAME).exists():
        assert not wal.verify_log(root / wal.LOG_NAME)["torn"]


@pytest.mark.parametrize("nth", range(1, len(V1_LOGS) + 2))
def test_kill_mid_migration_converges(v1_store, nth):
    """Crash before the marker flip (nth = 1) or before the (nth - 1)th old
    log's unlink, crash again on the retry, then open for real."""
    root = v1_store.parent / "store.json.wal"
    assert _open_with_fault(v1_store, f"mid-format-migration:{nth}") == wal.FAULT_EXIT_CODE
    assert wal.read_format(root) == (wal.FORMAT_V1 if nth == 1 else wal.FORMAT_V3)
    assert len(list(root.glob("*.log"))) == len(V1_LOGS) - max(0, nth - 2)
    _assert_each_file_checks_in_its_own_format(root)

    code = _open_with_fault(v1_store, "mid-format-migration:1")
    assert code in (0, wal.FAULT_EXIT_CODE)
    _assert_each_file_checks_in_its_own_format(root)

    assert _state(Database(v1_store)) == EXPECTED
    _assert_migrated(root)
    assert not list(root.glob("*.corrupt-*"))  # nothing was ever read as torn


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("nth", [1, 2])
def test_kill_mid_migration_of_each_layout_converges(tmp_path, layout, nth):
    store, expected = _older_store(tmp_path, layout)
    root = tmp_path / "store.json.wal"
    code = _open_with_fault(store, f"mid-format-migration:{nth}")
    # A snapshot has no old file to unlink: only the pre-flip point exists.
    assert code == (0 if layout == "snapshot" and nth == 2 else wal.FAULT_EXIT_CODE)
    _assert_each_file_checks_in_its_own_format(root)
    if layout == "snapshot":
        assert store.exists()  # the snapshot is never touched by migration
    assert json.dumps(_state(Database(store))) == json.dumps(expected)
    _assert_migrated(root)
    assert not list(root.glob("*.corrupt-*"))
