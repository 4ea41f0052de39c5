"""DurableJobStore units: persisted state machine, leases, recovery rules.

Two store instances opened on one store path stand in for two server
processes — the same protocol the subprocess suites exercise end-to-end,
tested here at the registry level where every interleaving is cheap to
arrange.
"""

from __future__ import annotations

import pytest

from repro.jobs import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    DurableJobStore,
    JobStateError,
)
from repro.store.database import Database

KEY = "a" * 64
OTHER_KEY = "b" * 64
PARAMS = {"min_support": 5}


class Clock:
    """A controllable clock: leases expire when the test says so."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        self.now += 0.001  # strictly increasing, like time.time
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "db.json"


def make_store(store_path, clock, worker_id) -> DurableJobStore:
    store = DurableJobStore(
        Database(store_path), worker_id=worker_id, clock=clock, lease_seconds=10.0
    )
    # Unit tests interleave cross-'process' writes and reads back-to-back;
    # the cancel-poll refresh throttle would hide writes made inside it.
    store.poll_refresh_seconds = 0.0
    return store


@pytest.fixture
def store(store_path, clock):
    return make_store(store_path, clock, "alpha")


def second_store(store_path, clock, worker_id="beta") -> DurableJobStore:
    """Another 'process': a fresh Database over the same store path."""
    return make_store(store_path, clock, worker_id)


def claim(store: DurableJobStore, job):
    """Claim ``job``, which must be the oldest claimable queued job."""
    claimed = store.claim_next()
    assert claimed is not None and claimed.job_id == job.job_id
    return claimed


class TestPersistedLifecycle:
    def test_every_transition_survives_reopen(self, store, store_path, clock):
        job, created = store.open_job("santander", PARAMS, KEY)
        assert created and job.state == QUEUED
        assert second_store(store_path, clock).get(job.job_id).state == QUEUED

        claim(store, job)
        assert second_store(store_path, clock).get(job.job_id).state == RUNNING

        store.mark_succeeded(job.job_id, result_key=KEY)
        reopened = second_store(store_path, clock).get(job.job_id)
        assert reopened.state == SUCCEEDED
        assert reopened.progress == 1.0
        assert reopened.result_key == KEY

    def test_failed_error_round_trips_through_snapshot(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        try:
            raise ValueError("sensor exploded")
        except ValueError as exc:
            store.mark_failed(job.job_id, exc)
        error = second_store(store_path, clock).get(job.job_id).error
        assert error.type == "ValueError"
        assert error.message == "sensor exploded"
        assert "sensor exploded" in error.traceback

    def test_terminal_states_stay_terminal(self, store):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        store.mark_succeeded(job.job_id)
        assert store.claim_next() is None
        with pytest.raises(JobStateError):
            store.request_cancel(job.job_id)

    def test_in_memory_database_keeps_semantics(self, clock):
        # No snapshot path: still a registry, just process-local.
        store = DurableJobStore(Database(), worker_id="solo", clock=clock)
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        final = store.mark_succeeded(job.job_id, result_key=KEY)
        assert final.state == SUCCEEDED and final.worker_id == "solo"


class TestClaiming:
    def test_claim_stamps_worker_and_lease(self, store, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claimed = claim(store, job)
        assert claimed.worker_id == "alpha"
        assert claimed.attempt == 1
        assert claimed.lease_expires_at == pytest.approx(clock.now, abs=11.0)
        assert claimed.lease_expires_at > clock.now

    def test_cross_process_dedup(self, store, store_path, clock):
        job, created = store.open_job("santander", PARAMS, KEY)
        other = second_store(store_path, clock)
        deduped, created2 = other.open_job("santander", PARAMS, KEY)
        assert created and not created2
        assert deduped.job_id == job.job_id

    def test_only_one_process_claims(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        other = second_store(store_path, clock)
        assert other.claim_next().job_id == job.job_id
        # The loser sees the claim and gets nothing.
        assert store.claim_next() is None

    def test_claim_next_is_fifo(self, store):
        first, _ = store.open_job("santander", PARAMS, KEY)
        second, _ = store.open_job("santander", PARAMS, OTHER_KEY)
        assert store.claim_next().job_id == first.job_id
        assert store.claim_next().job_id == second.job_id
        assert store.claim_next() is None

    def test_foreign_worker_cannot_finish(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        other = second_store(store_path, clock)
        other.claim_next()
        with pytest.raises(JobStateError, match="lease lost"):
            store.mark_succeeded(job.job_id, result_key=KEY)
        with pytest.raises(JobStateError, match="lease lost"):
            store.mark_failed(job.job_id, RuntimeError("late"))

    def test_stale_attempt_of_same_worker_cannot_clobber(self, store, clock):
        """Every claim-loop thread shares one worker_id: the attempt token
        is what keeps a stale thread of the *same process* from finishing
        (or progress-poisoning) a re-claimed job."""
        job, _ = store.open_job("santander", PARAMS, KEY)
        first = claim(store, job)  # attempt 1 (stale thread)
        clock.advance(11.0)
        store.reclaim_expired()
        clock.advance(1.0)  # past the requeue backoff window
        second = claim(store, job)  # attempt 2 (fresh claim)
        assert (first.attempt, second.attempt) == (1, 2)
        # Stale thread's late writes carry attempt=1 and are refused.
        with pytest.raises(JobStateError, match="lease lost"):
            store.mark_failed(job.job_id, RuntimeError("late"), attempt=1)
        lease_before = store.get(job.job_id).lease_expires_at
        clock.advance(5.0)
        store.set_progress(job.job_id, 1, 2, attempt=1)  # ignored tick
        assert store.get(job.job_id).progress == 0.0
        assert store.get(job.job_id).lease_expires_at == lease_before
        # The live claim's writes (attempt 2) go through.
        store.set_progress(job.job_id, 1, 2, attempt=2)
        assert store.get(job.job_id).progress == 0.5
        store.mark_succeeded(job.job_id, result_key=KEY, attempt=2)
        assert store.get(job.job_id).state == SUCCEEDED

    def test_stale_winner_cannot_clobber_newer_attempt(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        clock.advance(11.0)  # lease lapses
        other = second_store(store_path, clock)
        assert [j.job_id for j in other.reclaim_expired()] == [job.job_id]
        clock.advance(1.0)  # past the requeue backoff window
        reclaimed = other.claim_next()
        assert reclaimed.attempt == 2 and reclaimed.worker_id == "beta"
        # The original worker wakes up and tries to publish: refused.
        with pytest.raises(JobStateError, match="lease lost"):
            store.mark_succeeded(job.job_id, result_key=KEY)
        other.mark_succeeded(job.job_id, result_key=KEY)
        assert store.get(job.job_id).state == SUCCEEDED


class TestLeases:
    def test_progress_renews_lease(self, store, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claimed = claim(store, job)
        clock.advance(5.0)  # more than a third of the lease consumed
        store.set_progress(job.job_id, 1, 4)
        renewed = store.get(job.job_id)
        assert renewed.lease_expires_at > claimed.lease_expires_at

    def test_reclaim_requeues_only_lapsed(self, store, clock):
        expired, _ = store.open_job("santander", PARAMS, KEY)
        live, _ = store.open_job("santander", PARAMS, OTHER_KEY)
        claim(store, expired)
        clock.advance(11.0)
        claim(store, live)  # fresh lease
        requeued = store.reclaim_expired()
        assert [j.job_id for j in requeued] == [expired.job_id]
        assert store.get(expired.job_id).state == QUEUED
        assert store.get(expired.job_id).progress == 0.0
        assert store.get(live.job_id).state == RUNNING

    def test_reclaim_honours_pending_cancellation(self, store, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        store.request_cancel(job.job_id)
        clock.advance(11.0)
        assert store.reclaim_expired() == []  # cancelled, not requeued
        assert store.get(job.job_id).state == CANCELLED

    def test_lease_counters(self, store, clock):
        a, _ = store.open_job("santander", PARAMS, KEY)
        b, _ = store.open_job("santander", PARAMS, OTHER_KEY)
        claim(store, a)
        clock.advance(11.0)
        claim(store, b)
        counters = store.counters()
        assert counters["running"] == 2
        assert counters["leases"] == {"active": 1, "expired": 1}

    def test_cancel_flag_crosses_processes(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        other = second_store(store_path, clock)
        other.claim_next()
        store.request_cancel(job.job_id)
        assert other.cancel_requested(job.job_id)
        other.mark_cancelled(job.job_id)
        assert store.get(job.job_id).state == CANCELLED


class TestRecovery:
    def test_requeues_lapsed_running_jobs(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        clock.advance(11.0)
        fresh = second_store(store_path, clock, worker_id="recoverer")
        summary = fresh.recover()
        assert summary["requeued"] == [job.job_id]
        assert summary["queued"] == [job.job_id]
        assert fresh.get(job.job_id).state == QUEUED

    def test_leaves_live_leases_alone(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        fresh = second_store(store_path, clock, worker_id="recoverer")
        summary = fresh.recover()
        assert summary["requeued"] == []
        assert fresh.get(job.job_id).state == RUNNING

    def test_republishes_succeeded_jobs_with_results(self, store, store_path, clock):
        database = store.database
        database.collection("cap_results").insert_one({"key": KEY, "result": {}})
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        store.mark_succeeded(job.job_id, result_key=KEY)
        summary = second_store(store_path, clock).recover()
        assert summary["republished"] == [job.job_id]
        assert summary["requeued"] == []

    def test_reports_succeeded_jobs_missing_their_result(
        self, store, store_path, clock
    ):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        store.mark_succeeded(job.job_id, result_key=KEY)  # result never stored
        summary = second_store(store_path, clock).recover()
        assert summary["missing_results"] == [job.job_id]

    def test_queued_jobs_reported_for_rescheduling(self, store, store_path, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        summary = second_store(store_path, clock).recover()
        assert summary["queued"] == [job.job_id]


class TestRegistryViews:
    def test_list_merges_other_processes_jobs(self, store, store_path, clock):
        mine, _ = store.open_job("santander", PARAMS, KEY)
        other = second_store(store_path, clock)
        theirs, _ = other.open_job("santander", PARAMS, OTHER_KEY)
        assert [j.job_id for j in store.list()] == [mine.job_id, theirs.job_id]
        assert [j.job_id for j in store.list(QUEUED)] == [mine.job_id, theirs.job_id]

    def test_sequences_are_globally_unique(self, store, store_path, clock):
        a, _ = store.open_job("santander", PARAMS, KEY)
        other = second_store(store_path, clock)
        b, _ = other.open_job("santander", PARAMS, OTHER_KEY)
        c, _ = store.open_job("santander", PARAMS, "c" * 64)
        assert a.job_id != b.job_id != c.job_id
        assert [a.sequence, b.sequence, c.sequence] == [1, 2, 3]

    def test_progress_is_monotone_per_attempt(self, store, clock):
        job, _ = store.open_job("santander", PARAMS, KEY)
        claim(store, job)
        store.set_progress(job.job_id, 3, 8)
        store.set_progress(job.job_id, 2, 8)  # late tick: ignored
        assert store.get(job.job_id).progress == pytest.approx(3 / 8)
        clock.advance(11.0)
        store.reclaim_expired()
        assert store.get(job.job_id).progress == 0.0  # new attempt starts over
        clock.advance(1.0)  # past the requeue backoff window
        claim(store, job)
        store.set_progress(job.job_id, 1, 8)
        assert store.get(job.job_id).progress == pytest.approx(1 / 8)

    def test_deletion_is_not_resurrected_by_a_peer(self, store, store_path, clock):
        """A plain ``delete_many`` appends a tombstone: a peer that still
        holds the document neither resurrects it with its next write nor
        sees it after a refresh."""
        results = store.database.collection("cap_results")
        results.insert_one({"key": KEY, "result": {}})
        other = second_store(store_path, clock)
        peer_results = other.database.collection("cap_results")
        assert peer_results.find_one({"key": KEY}) is not None
        assert results.delete_many({"key": KEY}) == 1
        other.open_job("santander", PARAMS, OTHER_KEY)  # peer write
        store.refresh()
        assert results.find_one({"key": KEY}) is None  # not resurrected
        other.refresh()
        assert peer_results.find_one({"key": KEY}) is None

    def test_terminal_eviction_keeps_result_key_mapping(self, store_path, clock):
        store = DurableJobStore(
            Database(store_path), worker_id="alpha", clock=clock,
            lease_seconds=10.0, terminal_capacity=1,
        )
        finished = []
        for index in range(3):
            job, _ = store.open_job("santander", PARAMS, f"{index:064d}")
            claim(store, job)
            store.mark_succeeded(job.job_id, result_key=job.key)
            finished.append(job)
        store.open_job("santander", PARAMS, "z" * 64)  # triggers the prune
        evicted = finished[0]
        assert store.get(evicted.job_id) is None
        assert store.evicted_result_key(evicted.job_id) == evicted.key
        assert store.evicted_result_key("job-9999-nope") is None
