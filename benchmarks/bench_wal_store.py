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
  and the bytes it reclaims.

Numbers land in ``BENCH_wal_store.json`` (CI's bench lane uploads it).
The acceptance bar is explicit: WAL per-transition cost must undercut
snapshot-per-write by ≥10x, or the engine rewrite bought nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

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

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_wal_store",
        "machine": machine_info(),
        "timed_region": "document transitions per engine + compaction",
        "preloaded_documents": PRELOAD_DOCS,
        "transitions": TRANSITIONS,
        "memory_ms_per_transition": memory_ms,
        "wal_ms_per_transition": wal_ms,
        "snapshot_ms_per_transition": snapshot_ms,
        "snapshot_over_wal_collapse_x": collapse_x,
        "compaction": compaction_rows,
    }, indent=2) + "\n")
