"""Durable job registry — persisted-transition overhead and recovery time.

Durability costs per-transition latency: every lifecycle edge of a
store-backed job reaches the disk (on the WAL engine, one fsync'd record
append), where the in-memory registry just flips fields under a lock.
This bench quantifies that trade and the recovery path that justifies it:

* **transition overhead** — the full open → claim → succeed lifecycle,
  measured per job, on the in-memory :class:`JobStore` vs the
  :class:`DurableJobStore` bound to a real store path (the engine-level
  WAL-vs-snapshot comparison lives in ``bench_wal_store.py``);
* **recovery time** — a registry with 100 queued jobs (the backlog a
  killed server leaves behind) re-opened by a fresh process:
  ``Database(path)`` replay + ``recover()``, the work standing between a
  restart and serving again.

Numbers land in ``BENCH_job_registry.json`` (CI's bench lane uploads it).
The assertions check *shape*, not absolutes: durable transitions cost more
than in-memory ones (if not, nothing is being persisted and durability is
fiction), recovery requeues nothing for queued-only registries, and a
100-job recovery stays within interactive startup budgets.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.jobs import DurableJobStore, JobStore
from repro.store.database import Database

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_job_registry.json"

JOBS = 60
RECOVERY_BACKLOG = 100
PARAMS = {"min_support": 5, "max_attributes": 2}

#: Generous ceiling for re-opening + recovering a 100-job registry on a
#: noisy shared CI runner; a healthy run is well under a second.
RECOVERY_CEILING_S = 30.0


def _key(index: int) -> str:
    return f"{index:064d}"


def _lifecycle(store, count: int) -> float:
    """Seconds for ``count`` full open → claim → succeed lifecycles."""
    start = time.perf_counter()
    for index in range(count):
        job, created = store.open_job("bench", PARAMS, _key(index))
        assert created
        store.mark_running(job.job_id)
        store.set_progress(job.job_id, 1, 2)
        store.mark_succeeded(job.job_id, result_key=job.key)
    return time.perf_counter() - start


def test_durable_transition_overhead_and_recovery(tmp_path):
    in_memory_s = _lifecycle(JobStore(), JOBS)

    snapshot = tmp_path / "registry.json"
    durable = DurableJobStore(
        Database(snapshot), worker_id="bench", lease_seconds=30.0
    )
    durable_s = _lifecycle(durable, JOBS)
    wal_root = tmp_path / "registry.json.wal"
    assert wal_root.is_dir()
    store_kb = sum(
        p.stat().st_size for p in wal_root.glob("*.log")
    ) / 1024.0

    # Durability must actually cost something: four persisted edges per
    # job.  If the durable path were as fast as in-memory, transitions
    # would not be reaching the disk and crash recovery would be fiction.
    assert durable_s > in_memory_s

    # -- recovery: a fresh process adopts a 100-job backlog -------------------
    backlog_path = tmp_path / "backlog.json"
    writer = DurableJobStore(
        Database(backlog_path), worker_id="dead-server", lease_seconds=30.0
    )
    for index in range(RECOVERY_BACKLOG):
        writer.open_job("bench", PARAMS, _key(1000 + index))

    start = time.perf_counter()
    recovered = DurableJobStore(
        Database(backlog_path), worker_id="restarted", lease_seconds=30.0
    )
    summary = recovered.recover()
    recovery_s = time.perf_counter() - start

    assert len(summary["queued"]) == RECOVERY_BACKLOG
    assert summary["requeued"] == []  # nothing was running
    assert recovery_s < RECOVERY_CEILING_S

    per_in_memory_ms = in_memory_s / JOBS * 1000.0
    per_durable_ms = durable_s / JOBS * 1000.0
    rows = [
        {"registry": "in-memory JobStore",
         "lifecycle_ms_per_job": round(per_in_memory_ms, 3)},
        {"registry": "DurableJobStore (WAL-backed)",
         "lifecycle_ms_per_job": round(per_durable_ms, 3)},
        {"registry": f"recover {RECOVERY_BACKLOG} queued jobs",
         "lifecycle_ms_per_job": round(recovery_s * 1000.0, 1)},
    ]
    print_table("durable job registry costs", rows)
    print(f"  persisted/in-memory overhead: {per_durable_ms / per_in_memory_ms:.0f}x; "
          f"WAL after {JOBS} jobs: {store_kb:.1f} KB")

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_job_registry",
        "machine": machine_info(),
        "timed_region": "job lifecycle transitions + startup recovery",
        "jobs": JOBS,
        "in_memory_lifecycle_ms_per_job": per_in_memory_ms,
        "durable_lifecycle_ms_per_job": per_durable_ms,
        "persisted_overhead_x": per_durable_ms / per_in_memory_ms,
        "store_engine": "wal",
        "store_kb_after_lifecycles": store_kb,
        "recovery_backlog_jobs": RECOVERY_BACKLOG,
        "recovery_seconds": recovery_s,
    }, indent=2) + "\n")
