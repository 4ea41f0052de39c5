"""WAL store engine — per-transition overhead, section commits, compaction.

Snapshot-per-write durability re-serialized the *whole* database on every
persisted transition (7–11 ms per job at the time, degrading linearly
with store size).  The WAL engine appends one checksummed, fsync'd record
instead, so a transition costs the record — not the world:

* **per-transition overhead** — one indexed ``update_one`` on a store
  preloaded with a realistic document population, measured on the memory
  engine (floor), the WAL engine (append + fsync), and snapshot-per-write
  (a memory store exporting ``save(path)`` after every mutation — exactly
  what the retired snapshot engine did for durability);
* **compaction cost vs log length** — ``Database.compact`` on logs of
  growing record counts: the price of folding history back to live state,
  and the bytes it reclaims;
* **reopen time** — ``Database(path)`` on a ~3 MB store: replaying and
  verifying every record with C-speed ``zlib.crc32``; the same store in
  the v1 format (pure-Python CRC-32C) pays the one-time migration on its
  first open, which is the old reopen cost plus the rewrite;
* **section commits** — one ``Database.exclusive()`` section updating one
  document in each of 1, 3 and 9 collections: ``write(2)`` and ``fsync``
  calls and milliseconds per section, and the reopen time of the store
  those sections wrote;
* **compaction of a server-shaped store** — three uploaded datasets, a
  china6 parameter sweep's cached results and a few hundred job
  lifecycles: how long ``Database.compact`` runs, the bytes it rewrites,
  how long a writer's sections take meanwhile on a second handle, and
  what replaying the rewritten log costs a peer.

Numbers land in ``BENCH_wal_store.json`` (CI's bench lane uploads it).
The acceptance bar is explicit: WAL per-transition cost must undercut
snapshot-per-write by ≥10x, or the engine rewrite bought nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from pathlib import Path

from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_china6, generate_covid19, generate_santander
from repro.jobs.durable import DurableJobStore
from repro.server.app import create_app
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

#: Section commits: collections touched per section, sections timed.
SECTION_WIDTHS = (1, 3, 9)
SECTIONS = 100

#: Server-shaped store: job lifecycles (claim, 10 progress ticks, finish)
#: churned on top of the datasets and cached results, and compactions timed.
CHURN_JOBS = 200
COMPACTION_RUNS = 5


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
    """Rewrite a v3 store directory of index definitions and inserts in the
    v1 format (CRC-32C ``.log`` logs, one record per op)."""
    journal = root / wal.LOG_NAME
    commits, _end, torn = wal.decode_records(journal.read_bytes())
    assert not torn
    logs: dict[str, list[bytes]] = {}
    for commit in commits:
        for name, ops in commit.items():
            for op in ops:
                if isinstance(op, dict):
                    record = {"op": "put", "doc": op}
                else:
                    assert op[0] == "index"
                    record = {"op": "index", "path": op[1], "kind": op[2]}
                logs.setdefault(name, []).append(wal.encode_record(record, wal.crc32c))
    for name, records in logs.items():
        (root / f"{name}.log").write_bytes(b"".join(records))
    journal.unlink()
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
    store_bytes = (root / wal.LOG_NAME).stat().st_size

    reopen = []
    for _ in range(REOPEN_RUNS):
        elapsed, database = _open_ms(path)
        assert database["caps"].find() == expected
        reopen.append(elapsed)

    pristine = tmp_path / "reopen-v3"
    shutil.copytree(root, pristine)
    migration = []
    for _ in range(REOPEN_RUNS):
        shutil.rmtree(root)
        shutil.copytree(pristine, root)
        _as_v1(root)
        elapsed, database = _open_ms(path)
        assert database["caps"].find() == expected
        assert wal.read_format(root) == wal.FORMAT_V3
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
        result = database.compact()
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

    # -- reopen vs one-time v1 -> v3 migration --------------------------------
    reopen = _reopen_and_migration(tmp_path)
    print_table(f"open a {reopen['store_bytes'] / 1e6:.1f} MB store "
                f"(median of {REOPEN_RUNS})", [
        {"open": "reopen (v3, zlib.crc32)", "ms": round(reopen["reopen_ms"], 1)},
        {"open": "first open of v1 (CRC-32C verify + rewrite)",
         "ms": round(reopen["migrate_v1_ms"], 1)},
    ])
    # Reopening v3 must not pay what verifying v1 costs.
    assert reopen["reopen_ms"] < reopen["migrate_v1_ms"]

    # -- section commits ------------------------------------------------------
    sections = [_section_costs(tmp_path, width) for width in SECTION_WIDTHS]
    print_table("one section over 1/3/9 collections", sections)
    # The commit rule: one record, one fsync, whatever the width.
    assert all(row["writes_per_section"] == 1 for row in sections)
    assert all(row["fsyncs_per_section"] == 1 for row in sections)

    # -- compaction of a server-shaped store ------------------------------------
    server_store = _server_store_compaction(tmp_path)
    print_table(f"compact a server-shaped store (median of {COMPACTION_RUNS})",
                [server_store])

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_wal_store",
        "machine": machine_info(),
        "timed_region": "document transitions per engine + compaction + "
                        "store reopen / v1 migration + section commits + "
                        "server-shaped store compaction",
        "preloaded_documents": PRELOAD_DOCS,
        "transitions": TRANSITIONS,
        "memory_ms_per_transition": memory_ms,
        "wal_ms_per_transition": wal_ms,
        "snapshot_ms_per_transition": snapshot_ms,
        "snapshot_over_wal_collapse_x": collapse_x,
        "compaction": compaction_rows,
        "reopen": reopen,
        "section_commit": {
            "timed_region": f"median of {SECTIONS} exclusive() sections, each "
                            f"one update_one per collection; write(2)/fsync "
                            f"calls counted per section; reopen_ms: median of "
                            f"{REOPEN_RUNS} Database(path) opens of the store "
                            f"they wrote",
            "sections": sections,
        },
        "server_store_compaction": server_store,
    }, indent=2) + "\n")


def _section_costs(tmp_path: Path, width: int) -> dict:
    """Time SECTIONS sections, each updating one document in ``width``
    collections, counting the write(2)/fsync calls they make."""
    path = tmp_path / f"sections-{width}" / "store.json"
    database = Database(path)
    names = [f"c{index}" for index in range(width)]
    for name in names:
        database[name].create_index("key", "hash")
        database[name].insert_one({"key": 0, "state": "queued", "pad": "x" * 200})
    calls = {"write": 0, "fsync": 0}
    real_write, real_fsync = os.write, os.fsync

    def counted_write(fd, data):
        calls["write"] += 1
        return real_write(fd, data)

    def counted_fsync(fd):
        calls["fsync"] += 1
        return real_fsync(fd)

    elapsed = []
    os.write, os.fsync = counted_write, counted_fsync
    try:
        for step in range(SECTIONS):
            start = time.perf_counter()
            with database.exclusive():
                for name in names:
                    database[name].update_one({"key": 0}, {"state": f"s{step}"})
            elapsed.append((time.perf_counter() - start) * 1000.0)
    finally:
        os.write, os.fsync = real_write, real_fsync
    reopen = []
    for _ in range(REOPEN_RUNS):
        start = time.perf_counter()
        reopened = Database(path)
        reopen.append((time.perf_counter() - start) * 1000.0)
        assert reopened[names[-1]].find_one({"key": 0})["state"] == f"s{SECTIONS - 1}"
    return {
        "collections": width,
        "writes_per_section": calls["write"] / SECTIONS,
        "fsyncs_per_section": calls["fsync"] / SECTIONS,
        "ms_per_section": round(statistics.median(elapsed), 4),
        "reopen_ms": round(statistics.median(reopen), 3),
    }


def _server_store(path: Path) -> None:
    """Fill a store the way a serving process does: uploads, a cached
    parameter sweep, then job churn."""
    app = create_app(Database(path))
    china6 = generate_china6(seed=1, steps=480)
    app.state.put_dataset(china6)
    app.state.put_dataset(generate_santander(seed=1, steps=2016))
    app.state.put_dataset(generate_covid19(seed=1))
    base = recommended_parameters("china6")
    for support in (8, 10, 12, 14):
        for factor in (0.9, 1.0, 1.1):
            app.state.cache.mine_cached(china6, base.with_updates(
                min_support=support,
                distance_threshold=base.distance_threshold * factor,
            ))
    app.close()
    jobs = DurableJobStore(Database(path), worker_id="bench")
    for index in range(CHURN_JOBS):
        jobs.open_job("china6", {"min_support": index}, f"key-{index}")
        claimed = jobs.claim_next()
        for tick in range(1, 11):
            jobs.set_progress(claimed.job_id, tick, 11)
        jobs.mark_succeeded(claimed.job_id, result_key=f"key-{index}")


def _server_store_compaction(tmp_path: Path) -> dict:
    """Median compaction of the server-shaped store, from the same log each
    run, while a writer on a second handle commits one small section per
    millisecond.  ``writer_max_section_ms`` includes that handle's replay
    of the rewritten log, which ``peer_replay_ms`` times alone on a third
    handle."""
    path = tmp_path / "server" / "store.json"
    root = path.with_name(path.name + ".wal")
    _server_store(path)
    pristine = tmp_path / "server-pristine"
    shutil.copytree(root, pristine)
    runs = []
    for _ in range(COMPACTION_RUNS):
        shutil.rmtree(root)
        shutil.copytree(pristine, root)
        database, writer, reader = Database(path), Database(path), Database(path)
        expected = {name: database[name].find() for name in database}
        sections: list[float] = []
        stop = threading.Event()

        def write() -> None:
            probe = writer["probe"]
            while not stop.is_set():
                start = time.perf_counter()
                with writer.exclusive():
                    probe.insert_one({"at": start})
                sections.append((time.perf_counter() - start) * 1000.0)
                time.sleep(0.001)

        thread = threading.Thread(target=write)
        thread.start()
        time.sleep(0.05)
        start = time.perf_counter()
        result = database.compact()
        compact_ms = (time.perf_counter() - start) * 1000.0
        time.sleep(0.05)
        stop.set()
        thread.join()
        start = time.perf_counter()
        reader.refresh()
        replay_ms = (time.perf_counter() - start) * 1000.0
        assert result["compacted"]
        reopened = Database(path)
        assert {name: reopened[name].find() for name in expected} == expected
        assert len(reopened["probe"]) == len(sections) == len(reader["probe"])
        runs.append({
            "compact_ms": compact_ms,
            "before_bytes": result["before_bytes"],
            "rewritten_bytes": result["after_bytes"],
            "writer_max_section_ms": max(sections),
            "writer_p50_section_ms": statistics.median(sections),
            "peer_replay_ms": replay_ms,
        })
    summary = {key: round(statistics.median(run[key] for run in runs), 3)
               for key in runs[0]}
    return {"churned_jobs": CHURN_JOBS, **summary}
