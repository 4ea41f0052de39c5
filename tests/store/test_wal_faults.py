"""Store crash-point matrix: ``kill -9`` inside the WAL write path.

Each test runs a real subprocess with ``REPRO_STORE_FAULT`` armed, lets it
hard-exit (``os._exit``, exactly like SIGKILL landing there), then reopens
the store in *this* process and asserts recovery's contract: the store
opens cleanly and contains exactly the prefix of commits that completed —
never part of a section, never a half-record, never a lost acknowledged
write, never a dead compaction temp file.  A ``@collection`` scope counts
the commits that carry a record of that collection.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store import wal
from repro.store.database import Database

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def _run_store_script(script: str, store: Path, fault: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(SRC_DIR)
    )
    env.pop("REPRO_JOBS_FAULT", None)
    env["REPRO_STORE_FAULT"] = fault
    proc = subprocess.run(
        [sys.executable, "-c", script, str(store)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode


_INSERTS = """
import sys
from repro.store.database import Database
db = Database(sys.argv[1])
caps = db["caps"]
for n in range(1, 6):
    caps.insert_one({"n": n})
"""


@pytest.mark.parametrize("nth", [1, 2, 3, 5])
def test_mid_append_crash_recovers_exact_prefix(tmp_path, nth):
    store = tmp_path / "store.json"
    code = _run_store_script(_INSERTS, store, f"mid-append@caps:{nth}")
    assert code == wal.FAULT_EXIT_CODE

    log_path = tmp_path / "store.json.wal" / "journal"
    before = wal.verify_log(log_path)
    assert before["torn"]  # the half-record is really on disk

    reopened = Database(store)
    docs = reopened["caps"].find()
    assert [d["n"] for d in docs] == list(range(1, nth))
    # Recovery truncated the torn tail and quarantined its bytes.
    after = wal.verify_log(log_path)
    assert not after["torn"]
    assert after["records"] == nth - 1
    sidecars = list((tmp_path / "store.json.wal").glob("journal.corrupt-*"))
    assert len(sidecars) == 1
    # An id burned by the torn append is never reused after recovery.
    assert reopened["caps"].insert_one({"n": 99}) == nth


def test_pre_fsync_crash_reopens_cleanly(tmp_path):
    store = tmp_path / "store.json"
    code = _run_store_script(_INSERTS, store, "pre-fsync@caps:1")
    assert code == wal.FAULT_EXIT_CODE

    reopened = Database(store)
    docs = reopened["caps"].find()
    # The record bytes were written (only the fsync was lost), so on a
    # surviving page cache the first insert is visible — and whatever is
    # visible must be a clean prefix, never a torn record.
    assert [d["n"] for d in docs] == list(range(1, len(docs) + 1))
    report = wal.verify_log(tmp_path / "store.json.wal" / "journal")
    assert not report["torn"]


_COMPACT = """
import sys
from repro.store.database import Database
db = Database(sys.argv[1])
caps = db["caps"]
for n in range(1, 11):
    caps.insert_one({"n": n})
caps.delete_many({"n": {"$lte": 7}})
db.compact()
"""


def test_mid_compaction_swap_crash_keeps_the_old_log(tmp_path):
    store = tmp_path / "store.json"
    code = _run_store_script(_COMPACT, store, "mid-compaction-swap@caps")
    assert code == wal.FAULT_EXIT_CODE

    root = tmp_path / "store.json.wal"
    # The new log never replaced the old one: full history still there.
    report = wal.verify_log(root / "journal")
    assert report["records"] == 11  # 10 insert commits + 1 tombstone commit
    assert not report["torn"]

    reopened = Database(store)
    assert [d["n"] for d in reopened["caps"].find()] == [8, 9, 10]
    # Recovery swept the orphaned temp segment.
    assert list(root.glob("*.compact-tmp")) == []
    # And a retried compaction completes.
    result = reopened.compact()
    assert result["compacted"]
    assert [d["n"] for d in Database(store)["caps"].find()] == [8, 9, 10]


def test_crash_mid_update_keeps_the_old_version(tmp_path):
    store = tmp_path / "store.json"
    script = """
import sys
from repro.store.database import Database
db = Database(sys.argv[1])
caps = db["caps"]
caps.insert_one({"n": 1, "v": "original"})
caps.update_one({"n": 1}, {"v": "updated"})
"""
    code = _run_store_script(script, store, "mid-append@caps:2")
    assert code == wal.FAULT_EXIT_CODE
    reopened = Database(store)
    assert reopened["caps"].find_one({"n": 1})["v"] == "original"


# -- one section, several collections ---------------------------------------------

_SECTIONS = """
import sys
from repro.store.database import Database
db = Database(sys.argv[1])
for n in range(1, 4):
    with db.exclusive():
        db["a"].insert_one({"n": n})
        db["b"].insert_one({"n": n})
        db["c"].insert_one({"n": n})
"""


@pytest.mark.parametrize(
    "fault",
    ["mid-section:2", "mid-section@a:3", "mid-append@b:2", "mid-append:3"],
)
def test_a_crash_drops_the_whole_section(tmp_path, fault):
    """Each section writes a, b and c; a crash inside the nth section
    leaves exactly the sections before it, in every collection."""
    store = tmp_path / "store.json"
    assert _run_store_script(_SECTIONS, store, fault) == wal.FAULT_EXIT_CODE
    nth = int(fault.rpartition(":")[2])
    reopened = Database(store)
    for name in ("a", "b", "c"):
        assert [d["n"] for d in reopened[name].find()] == list(range(1, nth))
    report = wal.verify_log(tmp_path / "store.json.wal" / "journal")
    assert report["records"] == nth - 1 and not report["torn"]
    # Every id the lost section used is free again in every collection.
    assert reopened["a"].insert_one({"n": 99}) == nth


def test_mid_section_fires_only_for_a_second_collection(tmp_path):
    """Single-collection sections never reach the ``mid-section`` point."""
    store = tmp_path / "store.json"
    assert _run_store_script(_INSERTS, store, "mid-section") == 0
    assert [d["n"] for d in Database(store)["caps"].find()] == [1, 2, 3, 4, 5]
