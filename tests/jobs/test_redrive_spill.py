"""Satellites: shard-output spilling and dead-letter redrive.

Shard outputs no longer ride inside the job document — they spill into a
dedicated ``shard_outputs`` collection keyed by shard id, keeping the
hot ``jobs`` collection (rewritten on every transition) small.  Dead
letters gain an administrative exit: ``redrive`` replays quarantined
jobs as fresh queued work with reset attempt counters.
"""

from __future__ import annotations

import pytest

from repro.jobs import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    DurableJobStore,
    JobStateError,
    distributed,
)
from repro.store import Database, thaw

KEY = "a" * 64
OTHER_KEY = "b" * 64
PARAMS = {"min_support": 5}
UNITS = [
    [{"component": 0, "seeds": ["s1"], "first_rank": 0}],
    [{"component": 1, "seeds": ["s2"], "first_rank": 0}],
]
OUTPUT = [{"tag": [0, 0], "caps": []}]


class Clock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        self.now += 0.001
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "db.json"


def make_store(store_path, clock, worker_id, **kwargs) -> DurableJobStore:
    store = DurableJobStore(
        Database(store_path),
        worker_id=worker_id,
        clock=clock,
        lease_seconds=10.0,
        **kwargs,
    )
    store.poll_refresh_seconds = 0.0
    return store


@pytest.fixture
def store(store_path, clock):
    return make_store(store_path, clock, "w1")


def plan(store, *, units=UNITS):
    job, created = store.open_job("ds", PARAMS, KEY, distributed=True)
    assert created
    claimed = store.claim_next()
    distributed.finish_planning(
        store, job.job_id, claimed.attempt, shard_units=units, mode="search",
        horizon=4, generation=0,
    )
    return job.job_id


class TestShardOutputSpill:
    def test_output_lands_in_dedicated_collection(self, store):
        parent_id = plan(store)
        shard = store.claim_next()
        distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT, 0.25)
        spilled = store.database.collection("shard_outputs").find_one(
            {"shard_id": shard.job_id}
        )
        assert spilled is not None
        assert spilled["parent_id"] == parent_id
        assert spilled["output"] == OUTPUT
        assert spilled["elapsed_seconds"] == 0.25
        # The hot job document stays lean: no inline output payload.
        job_doc = store.database.collection("jobs").find_one(
            {"job_id": shard.job_id}
        )
        assert "output" not in job_doc

    def test_shard_outputs_reads_the_spill(self, store):
        parent_id = plan(store)
        for _ in range(2):
            shard = store.claim_next()
            distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
        outputs = distributed.shard_outputs(store, parent_id)
        assert [entry["output"] for entry in outputs] == [OUTPUT, OUTPUT]

    def test_legacy_inline_output_still_readable(self, store):
        """Stores written before the spill keep their inline outputs."""
        parent_id = plan(store)
        for _ in range(2):
            shard = store.claim_next()
            distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
        # Rewrite one shard to the pre-spill layout.
        spills = store.database.collection("shard_outputs")
        jobs = store.database.collection("jobs")
        legacy_id = f"{parent_id}-s000"
        spills.delete_many({"shard_id": legacy_id})
        document = thaw(jobs.find_one({"job_id": legacy_id}))
        document["output"] = [{"tag": [9, 9], "caps": []}]
        jobs.replace_one({"job_id": legacy_id}, document)
        outputs = distributed.shard_outputs(store, parent_id)
        assert outputs[0]["output"] == [{"tag": [9, 9], "caps": []}]
        assert outputs[1]["output"] == OUTPUT

    def test_missing_output_everywhere_raises(self, store):
        parent_id = plan(store)
        for _ in range(2):
            shard = store.claim_next()
            distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
        store.database.collection("shard_outputs").delete_many(
            {"shard_id": f"{parent_id}-s000"}
        )
        with pytest.raises(JobStateError, match="output"):
            distributed.shard_outputs(store, parent_id)

    def test_replayed_completion_overwrites_spill_idempotently(self, store):
        plan(store)
        shard = store.claim_next()
        distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT, 0.1)
        # A crash-replayed worker re-reports the same completion; CAS on
        # the job blocks the state change, but the spill write must not
        # have duplicated the document.
        with pytest.raises(JobStateError):
            distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT, 0.2)
        spills = store.database.collection("shard_outputs").find(
            {"shard_id": shard.job_id}
        )
        assert len(spills) == 1


class TestRedrive:
    def exhaust(self, store, clock, job_id):
        """Burn through every attempt of one job via lease lapses."""
        while True:
            claimed = store.claim_next()
            if claimed is None:
                break
            clock.advance(11.0)
            store.reclaim_expired()
            if store.get(job_id).state == FAILED:
                break

    def test_redrive_revives_a_dead_lettered_job(self, store_path, clock):
        store = make_store(store_path, clock, "w1", max_attempts=1,
                           backoff_base=0.0)
        job, _ = store.open_job("ds", PARAMS, KEY)
        self.exhaust(store, clock, job.job_id)
        assert store.get(job.job_id).state == FAILED
        assert store.counters()["dead_lettered"] == 1

        revived = store.redrive()
        assert revived == [job.job_id]
        fresh = store.get(job.job_id)
        assert fresh.state == QUEUED
        assert fresh.attempt == 0  # counters reset: full retry budget again
        assert fresh.error is None and fresh.not_before is None
        assert store.counters()["dead_lettered"] == 0
        # The revived job is claimable like any new submission.
        assert store.claim_next().job_id == job.job_id

    def test_redrive_filters_by_job_id(self, store_path, clock):
        store = make_store(store_path, clock, "w1", max_attempts=1,
                           backoff_base=0.0)
        first, _ = store.open_job("ds", PARAMS, KEY)
        self.exhaust(store, clock, first.job_id)
        second, _ = store.open_job("ds", PARAMS, OTHER_KEY)
        self.exhaust(store, clock, second.job_id)
        assert store.counters()["dead_lettered"] == 2

        assert store.redrive([second.job_id]) == [second.job_id]
        assert store.get(second.job_id).state == QUEUED
        assert store.get(first.job_id).state == FAILED
        assert store.counters()["dead_lettered"] == 1

    def test_redrive_restores_distributed_lineage(self, store_path, clock):
        store = make_store(store_path, clock, "w1", max_attempts=1,
                           backoff_base=0.0)
        parent_id = plan(store)
        shard = store.claim_next()
        clock.advance(11.0)
        store.reclaim_expired()  # attempt 1 of 1 -> dead letter
        dead_id = shard.job_id
        assert store.get(dead_id).state == FAILED
        assert store.get(parent_id).state == FAILED
        sibling_id = next(
            child.job_id for child in store.list(kind=None, parent_id=parent_id)
            if child.job_id != dead_id and child.kind == "shard"
        )
        assert store.get(sibling_id).state == CANCELLED

        assert store.redrive() == [dead_id]
        assert store.get(dead_id).state == QUEUED
        assert store.get(sibling_id).state == QUEUED
        parent = store.get(parent_id)
        assert parent.state == RUNNING and parent.error is None
        # The revived tree runs to completion like a first-time plan.
        for _ in range(2):
            claimed = store.claim_next()
            distributed.complete_shard(store, claimed.job_id, claimed.attempt, OUTPUT)
        merge = store.claim_next()
        assert merge.kind == "merge"

    def test_redrive_with_nothing_quarantined_is_a_noop(self, store):
        assert store.redrive() == []

    def test_redrive_skips_already_resolved_jobs(self, store_path, clock):
        store = make_store(store_path, clock, "w1", max_attempts=1,
                           backoff_base=0.0)
        job, _ = store.open_job("ds", PARAMS, KEY)
        self.exhaust(store, clock, job.job_id)
        assert store.redrive() == [job.job_id]
        # The letter is consumed: a second redrive finds nothing, and the
        # (now queued) job is untouched.
        assert store.redrive() == []
        assert store.get(job.job_id).state == QUEUED
