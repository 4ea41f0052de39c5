"""WAL store engine — per-transition overhead collapse and compaction cost.

The ISSUE-6 claim in numbers: PR 5's durability rode snapshot-per-write —
every persisted transition re-serialized the *whole* database (7–11 ms per
job at the time, degrading linearly with store size).
The WAL engine appends one checksummed, fsync'd record instead, so a
transition costs the record — not the world:

* **per-transition overhead** — one indexed ``update_one`` on a store
  preloaded with a realistic document population, measured on the memory
  engine (floor), the WAL engine (append + fsync), and snapshot-per-write
  (a memory store exporting ``save(path)`` after every mutation — exactly
  what the retired snapshot engine did for durability);
* **compaction cost vs log length** — ``compact_collection`` on logs of
  growing record counts: the price of folding history back to live state,
  and the bytes it reclaims;
* **reopen time** — ``Database(path)`` on a ~3 MB store: replaying and
  verifying every record.  v2 checksums with C-speed ``zlib.crc32``; the
  same store in the v1 format (pure-Python CRC-32C) pays the one-time
  v1 -> v2 migration on its first open, which is the old reopen cost plus
  the rewrite.

Numbers land in ``BENCH_wal_store.json`` (CI's bench lane uploads it).
The acceptance bar is explicit: WAL per-transition cost must undercut
snapshot-per-write by ≥10x, or the engine rewrite bought nothing.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path

from repro.store import wal
from repro.store.database import Database

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_wal_store.json"

#: Documents already in the store when transitions are measured — the
#: snapshot-per-write cost scales with this; the WAL engine's must not.
PRELOAD_DOCS = 300
TRANSITIONS = 120
COMPACTION_LOG_LENGTHS = (200, 800, 3200)

#: The engine rewrite's reason to exist (ISSUE-6 acceptance criterion).
MIN_COLLAPSE_X = 10.0

#: Reopen store: this many ~1.5 KB result-like documents (~3 MB of log).
REOPEN_DOCS = 3600
REOPEN_RUNS = 5


def _preload(database: Database):
    jobs = database["jobs"]
    jobs.create_index("job_id", "hash")
    for index in range(PRELOAD_DOCS):
        jobs.insert_one({
            "job_id": f"seed-{index}",
            "state": "succeeded",
            "payload": {
                "dataset": "santander",
                "params": {"min_support": 5, "distance_threshold": 500.0},
            },
            "progress": 1.0,
        })
    return jobs


def _transition_ms(jobs, save=None) -> float:
    start = time.perf_counter()
    for index in range(TRANSITIONS):
        jobs.update_one({"job_id": f"seed-{index}"}, {"state": "running"})
        if save is not None:
            save()
    return (time.perf_counter() - start) / TRANSITIONS * 1000.0


def _as_v1(root: Path) -> None:
    """Rewrite a v2 store directory in the v1 format (CRC-32C ``.log`` logs)."""
    for segment in root.glob("*.seg"):
        records, _end, torn = wal.decode_records(segment.read_bytes())
        assert not torn
        segment.with_suffix(".log").write_bytes(
            b"".join(wal.encode_record(record, wal.crc32c) for record in records)
        )
        segment.unlink()
    (root / wal.FORMAT_MARKER).write_text(wal.FORMAT_V1 + "\n")


def _open_ms(path: Path) -> tuple[float, Database]:
    start = time.perf_counter()
    database = Database(path)
    return (time.perf_counter() - start) * 1000.0, database


def _reopen_and_migration(tmp_path: Path) -> dict:
    path = tmp_path / "reopen" / "store.json"
    caps = Database(path)["caps"]
    caps.create_index("dataset", "hash")
    for index in range(REOPEN_DOCS):
        caps.insert_one({
            "dataset": "santander",
            "sensors": [f"sensor-{index + k}" for k in range(8)],
            "attributes": ["temperature", "light", "noise"],
            "support": index,
            "series": [round(index * 0.001 + k * 0.37, 4) for k in range(80)],
        })
    expected = caps.find()
    root = path.with_name(path.name + ".wal")
    store_bytes = sum(p.stat().st_size for p in root.glob("*.seg"))

    reopen = []
    for _ in range(REOPEN_RUNS):
        elapsed, database = _open_ms(path)
        assert database["caps"].find() == expected
        reopen.append(elapsed)

    pristine = tmp_path / "reopen-v2"
    shutil.copytree(root, pristine)
    migration = []
    for _ in range(REOPEN_RUNS):
        shutil.rmtree(root)
        shutil.copytree(pristine, root)
        _as_v1(root)
        elapsed, database = _open_ms(path)
        assert database["caps"].find() == expected
        assert wal.read_format(root) == wal.FORMAT_V2
        migration.append(elapsed)
    return {
        "documents": REOPEN_DOCS,
        "store_bytes": store_bytes,
        "runs": REOPEN_RUNS,
        "reopen_ms": statistics.median(reopen),
        "migrate_v1_ms": statistics.median(migration),
    }


def test_wal_transition_collapse_and_compaction(tmp_path):
    memory_jobs = _preload(Database())
    memory_ms = _transition_ms(memory_jobs)

    snapshot_db = Database()
    snapshot_jobs = _preload(snapshot_db)
    snapshot_path = tmp_path / "snap.json"
    snapshot_db.save(snapshot_path)
    # Snapshot-per-write: every persisted transition rewrites the snapshot.
    snapshot_ms = _transition_ms(
        snapshot_jobs, save=lambda: snapshot_db.save(snapshot_path)
    )

    wal_db = Database(tmp_path / "wal.json")
    wal_jobs = _preload(wal_db)
    wal_ms = _transition_ms(wal_jobs)

    collapse_x = snapshot_ms / wal_ms
    rows = [
        {"engine": "memory (no durability)", "ms_per_transition": round(memory_ms, 4)},
        {"engine": "wal (append + fsync)", "ms_per_transition": round(wal_ms, 4)},
        {"engine": "snapshot (save per write)", "ms_per_transition": round(snapshot_ms, 4)},
    ]
    print_table(f"store transition cost ({PRELOAD_DOCS} preloaded docs)", rows)
    print(f"  snapshot/wal collapse: {collapse_x:.1f}x "
          f"(acceptance bar: >= {MIN_COLLAPSE_X:.0f}x)")

    # Durability must cost more than memory, and the WAL must collapse the
    # snapshot-per-write price by at least the acceptance bar.
    assert wal_ms > memory_ms
    assert collapse_x >= MIN_COLLAPSE_X

    # -- compaction cost vs log length ----------------------------------------
    compaction_rows = []
    for length in COMPACTION_LOG_LENGTHS:
        database = Database(tmp_path / f"compact-{length}.json")
        collection = database["jobs"]
        doc_id = collection.insert_one({"state": "queued"})
        for index in range(length - 1):
            collection.update_one({"_id": doc_id}, {"state": f"step-{index}"})
        live_state = collection.find()

        start = time.perf_counter()
        result = database.compact_collection("jobs")
        compact_ms = (time.perf_counter() - start) * 1000.0

        assert result["compacted"]
        assert collection.find() == live_state  # folding history is lossless
        reopened = Database(tmp_path / f"compact-{length}.json")
        assert reopened["jobs"].find() == live_state

        compaction_rows.append({
            "log_records": length,
            "compact_ms": round(compact_ms, 3),
            "before_bytes": result["before_bytes"],
            "after_bytes": result["after_bytes"],
        })
    print_table("compaction cost vs log length", compaction_rows)

    # -- reopen vs one-time v1 -> v2 migration --------------------------------
    reopen = _reopen_and_migration(tmp_path)
    print_table(f"open a {reopen['store_bytes'] / 1e6:.1f} MB store "
                f"(median of {REOPEN_RUNS})", [
        {"open": "reopen (v2, zlib.crc32)", "ms": round(reopen["reopen_ms"], 1)},
        {"open": "first open of v1 (CRC-32C verify + rewrite)",
         "ms": round(reopen["migrate_v1_ms"], 1)},
    ])
    # Reopening v2 must not pay what verifying v1 costs.
    assert reopen["reopen_ms"] < reopen["migrate_v1_ms"]

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_wal_store",
        "machine": machine_info(),
        "timed_region": "document transitions per engine + compaction + "
                        "store reopen / v1 migration",
        "preloaded_documents": PRELOAD_DOCS,
        "transitions": TRANSITIONS,
        "memory_ms_per_transition": memory_ms,
        "wal_ms_per_transition": wal_ms,
        "snapshot_ms_per_transition": snapshot_ms,
        "snapshot_over_wal_collapse_x": collapse_x,
        "compaction": compaction_rows,
        "reopen": reopen,
    }, indent=2) + "\n")
