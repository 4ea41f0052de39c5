"""Job registry — per-job cost, its scaling, and recovery time.

Every process runs one registry, :class:`DurableJobStore`; only the
database under it differs.  Durability costs per-transition latency:
every lifecycle edge of a job on a store path reaches the disk (one
fsync'd WAL record append), where a path-less database keeps the same
documents in memory.  This bench quantifies that trade, the registry's
scaling, and the recovery path that justifies durability:

* **scaling** — the full open → claim → progress → succeed lifecycle,
  measured per job over ``Database()`` at 60 and at 200 jobs: submission
  must not get dearer as the registry fills (the sequence counter and
  the retention check read indexes, not every job document);
* **transition overhead** — the same lifecycle on ``Database()`` vs a
  real store path (the engine-level comparison lives in
  ``bench_wal_store.py``);
* **recovery time** — a registry with 100 queued jobs (the backlog a
  killed server leaves behind) re-opened by a fresh process:
  ``Database(path)`` replay + ``recover()``, the work standing between a
  restart and serving again.

Numbers land in ``BENCH_job_registry.json`` (CI's bench lane uploads it).
The assertions check *shape*, not absolutes: per-job cost at 200 jobs is
within 1.5x of the cost at 60, WAL-backed transitions cost more than
in-memory ones (if not, nothing is being persisted and durability is
fiction), recovery requeues nothing for queued-only registries, and a
100-job recovery stays within interactive startup budgets.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.jobs import DurableJobStore
from repro.store.database import Database

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_job_registry.json"

JOBS = 60
SCALED_JOBS = 200
#: Per-job cost at SCALED_JOBS may exceed the JOBS figure by at most this.
SCALING_CEILING_X = 1.5
#: Each in-memory arm keeps its best of this many fresh-registry runs.
REPEATS = 3
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
        store.claim_next()
        store.set_progress(job.job_id, 1, 2)
        store.mark_succeeded(job.job_id, result_key=job.key)
    return time.perf_counter() - start


def _in_memory_ms_per_job(count: int) -> float:
    """Best per-job lifecycle milliseconds over fresh path-less registries."""
    return min(
        _lifecycle(DurableJobStore(Database(), worker_id="bench"), count)
        for _ in range(REPEATS)
    ) / count * 1000.0


def test_durable_transition_overhead_and_recovery(tmp_path):
    per_in_memory_ms = _in_memory_ms_per_job(JOBS)
    per_scaled_ms = _in_memory_ms_per_job(SCALED_JOBS)
    # O(1) per submission: a fuller registry must not tax each new job.
    assert per_scaled_ms <= SCALING_CEILING_X * per_in_memory_ms

    snapshot = tmp_path / "registry.json"
    durable = DurableJobStore(
        Database(snapshot), worker_id="bench", lease_seconds=30.0
    )
    durable_s = _lifecycle(durable, JOBS)
    wal_root = tmp_path / "registry.json.wal"
    assert wal_root.is_dir()
    store_kb = (wal_root / "journal").stat().st_size / 1024.0

    per_durable_ms = durable_s / JOBS * 1000.0
    # Durability must actually cost something: four persisted edges per
    # job.  If the WAL-backed path were as fast as in-memory, transitions
    # would not be reaching the disk and crash recovery would be fiction.
    assert per_durable_ms > per_in_memory_ms

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

    rows = [
        {"registry": f"Database(), {JOBS} jobs",
         "lifecycle_ms_per_job": round(per_in_memory_ms, 3)},
        {"registry": f"Database(), {SCALED_JOBS} jobs",
         "lifecycle_ms_per_job": round(per_scaled_ms, 3)},
        {"registry": f"Database(path) (WAL-backed), {JOBS} jobs",
         "lifecycle_ms_per_job": round(per_durable_ms, 3)},
        {"registry": f"recover {RECOVERY_BACKLOG} queued jobs",
         "lifecycle_ms_per_job": round(recovery_s * 1000.0, 1)},
    ]
    print_table("job registry costs", rows)
    print(f"  persisted/in-memory overhead: {per_durable_ms / per_in_memory_ms:.0f}x; "
          f"WAL after {JOBS} jobs: {store_kb:.1f} KB")

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_job_registry",
        "machine": machine_info(),
        "timed_region": "job lifecycle transitions + startup recovery",
        "jobs": JOBS,
        "in_memory_lifecycle_ms_per_job": per_in_memory_ms,
        "scaled_jobs": SCALED_JOBS,
        "in_memory_scaled_lifecycle_ms_per_job": per_scaled_ms,
        "scaling_x": per_scaled_ms / per_in_memory_ms,
        "durable_lifecycle_ms_per_job": per_durable_ms,
        "persisted_overhead_x": per_durable_ms / per_in_memory_ms,
        "store_engine": "wal",
        "store_kb_after_lifecycles": store_kb,
        "recovery_backlog_jobs": RECOVERY_BACKLOG,
        "recovery_seconds": recovery_s,
    }, indent=2) + "\n")
