"""Distributed-registry units: shard sub-jobs, release, backoff, dead-letter.

The shard protocol at the store level, where every interleaving is cheap to
arrange: two :class:`DurableJobStore` instances on one snapshot path stand
in for two server processes, and a controllable clock lapses leases and
backoff windows on demand.  The subprocess crash matrix
(``tests/server/test_distributed_jobs.py``) proves the same rules end to
end; here each rule is pinned in isolation.
"""

from __future__ import annotations

import pytest

from repro.jobs import (
    ATTEMPTS_EXHAUSTED,
    CANCELLED,
    FAILED,
    KIND_MERGE,
    KIND_MINE,
    KIND_SHARD,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    DurableJobStore,
    JobStateError,
    distributed,
)
from repro.store.database import Database

KEY = "a" * 64
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


def plan(store, *, units=UNITS, generation=0):
    """Open + claim + plan one distributed parent; returns the parent id."""
    job, created = store.open_job("ds", PARAMS, KEY, distributed=True)
    assert created
    claimed = store.claim_next()
    assert claimed.job_id == job.job_id
    distributed.finish_planning(
        store, job.job_id, claimed.attempt, shard_units=units, mode="search",
        horizon=4, generation=generation,
    )
    return job.job_id


class TestPlanning:
    def test_planned_parent_is_running_lease_less(self, store):
        parent_id = plan(store)
        parent = store.get(parent_id)
        assert parent.state == RUNNING
        assert parent.planned
        assert parent.worker_id is None
        assert parent.lease_expires_at is None

    def test_children_are_deterministic_and_ordered(self, store):
        parent_id = plan(store)
        children = store.list(kind=None, parent_id=parent_id)
        assert [c.job_id for c in children] == [
            f"{parent_id}-s000", f"{parent_id}-s001", f"{parent_id}-merge",
        ]
        assert [c.kind for c in children] == [KIND_SHARD, KIND_SHARD, KIND_MERGE]
        assert [c.shard_index for c in children] == [0, 1, None]
        assert all(c.parent_id == parent_id for c in children)

    def test_dedup_ignores_shard_children_sharing_the_key(self, store):
        parent_id = plan(store)
        job, created = store.open_job("ds", PARAMS, KEY, distributed=True)
        assert not created
        assert job.job_id == parent_id
        assert job.kind == KIND_MINE

    def test_replan_after_planner_crash_is_idempotent(self, store_path, clock):
        alpha = make_store(store_path, clock, "alpha")
        beta = make_store(store_path, clock, "beta")
        job, _ = alpha.open_job("ds", PARAMS, KEY, distributed=True)
        assert alpha.claim_next().job_id == job.job_id
        # alpha "dies" mid-plan; beta reclaims the parent and replans.
        clock.advance(11.0)
        beta.refresh()
        assert [j.job_id for j in beta.reclaim_expired()] == [job.job_id]
        clock.advance(1.0)  # past the requeue backoff window
        retry = beta.claim_next()
        assert retry.job_id == job.job_id and retry.attempt == 2
        distributed.finish_planning(
            beta, job.job_id, retry.attempt, shard_units=UNITS, mode="search",
            horizon=4,
        )
        assert len(beta.list(kind=None, parent_id=job.job_id)) == 3  # no duplicates

    def test_stale_planner_cannot_finish(self, store, clock):
        job, _ = store.open_job("ds", PARAMS, KEY, distributed=True)
        first = store.claim_next()
        clock.advance(11.0)
        store.reclaim_expired()
        clock.advance(1.0)  # past the requeue backoff window
        second = store.claim_next()
        assert second.attempt == 2
        with pytest.raises(JobStateError):
            distributed.finish_planning(
                store, job.job_id, first.attempt, shard_units=UNITS, mode="search",
                horizon=4,
            )

    def test_plan_workers_round_trips(self, store):
        job, _ = store.open_job("ds", PARAMS, KEY, distributed=True,
                                plan_workers=7)
        assert distributed.plan_workers(store, job.job_id) == 7


class TestShardLifecycle:
    def test_merge_gated_until_every_shard_succeeds(self, store):
        parent_id = plan(store)
        first = store.claim_next()
        assert first.job_id == f"{parent_id}-s000"
        second = store.claim_next()
        assert second.job_id == f"{parent_id}-s001"
        assert store.claim_next() is None  # merge not claimable yet
        distributed.complete_shard(store, first.job_id, first.attempt, OUTPUT)
        assert store.claim_next() is None  # one shard still running
        distributed.complete_shard(store, second.job_id, second.attempt, OUTPUT)
        merge = store.claim_next()
        assert merge.job_id == f"{parent_id}-merge"

    def test_merge_success_promotes_parent_with_result_key(self, store):
        parent_id = plan(store)
        for _ in range(2):
            shard = store.claim_next()
            distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
        merge = store.claim_next()
        store.mark_succeeded(merge.job_id, KEY, attempt=merge.attempt)
        store.reclaim_expired()  # resolution pass
        parent = store.get(parent_id)
        assert parent.state == SUCCEEDED
        assert parent.result_key == KEY

    def test_shard_spec_and_outputs_round_trip(self, store):
        parent_id = plan(store, generation=3)
        shard = store.claim_next()
        spec = distributed.shard_spec(store, shard.job_id)
        assert spec["units"] == UNITS[0]
        assert spec["generation"] == 3
        assert spec["parent_id"] == parent_id
        with pytest.raises(JobStateError):
            distributed.shard_outputs(store, parent_id)  # not all shards succeeded
        distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
        other = store.claim_next()
        distributed.complete_shard(store, other.job_id, other.attempt, OUTPUT, 0.5)
        outputs = distributed.shard_outputs(store, parent_id)
        assert [o["shard_id"] for o in outputs] == [
            f"{parent_id}-s000", f"{parent_id}-s001",
        ]
        assert all(o["output"] == OUTPUT for o in outputs)

    def test_release_requeues_preserving_attempt(self, store):
        parent_id = plan(store)
        shard = store.claim_next()
        assert store.release(shard.job_id, shard.attempt) is True
        released = store.get(shard.job_id)
        assert released.state == QUEUED
        assert released.attempt == 1  # the attempt counter is history, kept
        assert released.not_before is None  # immediate takeover, no backoff
        retry = store.claim_next()
        assert retry.job_id == shard.job_id and retry.attempt == 2

    def test_release_of_lost_claim_is_a_noop(self, store, clock):
        plan(store)
        shard = store.claim_next()
        clock.advance(11.0)
        store.reclaim_expired()
        clock.advance(1.0)  # past the requeue backoff window
        stolen = store.claim_next()  # same shard, new attempt
        assert stolen.job_id == shard.job_id
        assert store.release(shard.job_id, shard.attempt) is False
        assert store.get(shard.job_id).state == RUNNING

    def test_release_honours_pending_cancellation(self, store):
        parent_id = plan(store)
        shard = store.claim_next()
        store.request_cancel(parent_id)
        assert store.release(shard.job_id, shard.attempt) is True
        assert store.get(shard.job_id).state == CANCELLED


class TestRetriesAndDeadLetter:
    def test_requeue_applies_exponential_backoff(self, store_path, clock):
        store = make_store(store_path, clock, "w1", backoff_base=2.0)
        plan(store)
        shard = store.claim_next()
        clock.advance(11.0)
        store.reclaim_expired()
        requeued = store.get(shard.job_id)
        assert requeued.state == QUEUED
        assert requeued.not_before is not None
        # Backoff gates polling claims until the window passes.  The other
        # shard (never attempted) is claimable immediately.
        assert store.claim_next().job_id != shard.job_id
        clock.advance(2.1)
        retry = store.claim_next()
        assert retry.job_id == shard.job_id and retry.attempt == 2

    def test_exhausted_shard_dead_letters_and_fails_parent(
        self, store_path, clock
    ):
        store = make_store(store_path, clock, "w1", max_attempts=2,
                           backoff_base=0.0)
        parent_id = plan(store)
        for expected_attempt in (1, 2):
            shard = store.claim_next()
            assert shard.job_id == f"{parent_id}-s000"
            assert shard.attempt == expected_attempt
            clock.advance(11.0)
            store.reclaim_expired()
        failed = store.get(f"{parent_id}-s000")
        assert failed.state == FAILED
        assert failed.error.type == ATTEMPTS_EXHAUSTED
        assert "2" in failed.error.message
        parent = store.get(parent_id)
        assert parent.state == FAILED
        assert f"{parent_id}-s000" in parent.error.message
        # The sibling that never ran is cancelled, not left dangling.
        sibling = store.get(f"{parent_id}-s001")
        assert sibling.state == CANCELLED
        counters = store.counters()
        assert counters["dead_lettered"] == 1
        assert counters["kinds"]["shard"] == 2

    def test_max_attempts_zero_means_unlimited(self, store_path, clock):
        store = make_store(store_path, clock, "w1", max_attempts=0,
                           backoff_base=0.0)
        plan(store)
        for expected_attempt in range(1, 8):
            shard = store.claim_next()
            if shard.job_id.endswith("-s001"):
                distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
                shard = store.claim_next()
            assert shard.attempt is not None
            clock.advance(11.0)
            store.reclaim_expired()
        assert store.get(shard.job_id).state == QUEUED

    def test_whole_job_requeue_dead_letters_too(self, store_path, clock):
        # Satellite: the plain (non-distributed) requeue path shares the
        # attempts bound.
        store = make_store(store_path, clock, "w1", max_attempts=2,
                           backoff_base=0.0)
        job, _ = store.open_job("ds", PARAMS, KEY)
        for _ in range(2):
            claimed = store.claim_next()
            assert claimed.job_id == job.job_id
            clock.advance(11.0)
            store.reclaim_expired()
        final = store.get(job.job_id)
        assert final.state == FAILED
        assert final.error.type == ATTEMPTS_EXHAUSTED
        assert store.counters()["dead_lettered"] == 1


class TestCancellation:
    def test_cancel_propagates_through_the_tree(self, store):
        parent_id = plan(store)
        shard = store.claim_next()  # one shard running, one queued
        store.request_cancel(parent_id)
        assert store.cancel_requested(shard.job_id)
        queued_sibling = store.get(f"{parent_id}-s001")
        assert queued_sibling.state == CANCELLED
        # The running shard notices at its next checkpoint and cancels.
        store.mark_cancelled(shard.job_id, attempt=shard.attempt)
        store.reclaim_expired()
        assert store.get(parent_id).state == CANCELLED

    def test_failed_merge_fails_parent(self, store):
        parent_id = plan(store)
        for _ in range(2):
            shard = store.claim_next()
            distributed.complete_shard(store, shard.job_id, shard.attempt, OUTPUT)
        merge = store.claim_next()
        store.mark_failed(merge.job_id, RuntimeError("boom"),
                          attempt=merge.attempt)
        store.reclaim_expired()
        parent = store.get(parent_id)
        assert parent.state == FAILED
        assert "merge step" in parent.error.message


class TestCrossProcess:
    def test_two_stores_split_the_shards_exactly_once(self, store_path, clock):
        alpha = make_store(store_path, clock, "alpha")
        beta = make_store(store_path, clock, "beta")
        parent_id = plan(alpha)
        beta.refresh()
        first = alpha.claim_next()
        second = beta.claim_next()
        assert {first.job_id, second.job_id} == {
            f"{parent_id}-s000", f"{parent_id}-s001",
        }
        assert beta.claim_next() is None  # nothing left but the gated merge
        distributed.complete_shard(alpha, first.job_id, first.attempt, OUTPUT)
        distributed.complete_shard(beta, second.job_id, second.attempt, OUTPUT)
        merge = beta.claim_next()
        assert merge is not None and merge.kind == KIND_MERGE

    def test_recover_skips_planned_parent_but_requeues_lost_shard(
        self, store_path, clock
    ):
        alpha = make_store(store_path, clock, "alpha")
        parent_id = plan(alpha)
        shard = alpha.claim_next()
        clock.advance(11.0)
        # A second process starting fresh: the planned lease-less parent is
        # *not* an interrupted job, the lapsed shard is.
        beta = make_store(store_path, clock, "beta")
        summary = beta.recover()
        assert parent_id not in summary["requeued"]
        assert shard.job_id in summary["requeued"]
        assert beta.get(parent_id).state == RUNNING
        assert beta.get(parent_id).planned
