"""Job registry units: the state machine, progress monotonicity, dedup index.

Run against :class:`DurableJobStore` over a path-less :class:`Database` —
the one registry every process uses, here without a WAL underneath.
"""

from __future__ import annotations

import pytest

from repro.jobs import (
    CANCELLED,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    KIND_STREAM,
    DurableJobStore,
    JobStateError,
)
from repro.jobs.model import ensure_transition
from repro.store.database import Database
from repro.stream import STREAM_OPEN_RULE

KEY = "a" * 64
OTHER_KEY = "b" * 64
PARAMS = {"min_support": 5}


def make_store(**kwargs) -> DurableJobStore:
    # A deterministic, strictly increasing clock: timestamp ordering
    # assertions never depend on wall-clock resolution.
    ticks = iter(range(1, 100_000))
    return DurableJobStore(
        Database(), clock=lambda: float(next(ticks)), **kwargs
    )


@pytest.fixture
def store() -> DurableJobStore:
    return make_store()


def claim(store: DurableJobStore, job):
    """Claim ``job``, which must be the oldest claimable queued job."""
    claimed = store.claim_next()
    assert claimed is not None and claimed.job_id == job.job_id
    return claimed


def open_one(store: DurableJobStore, key: str = KEY):
    job, created = store.open_job("santander", PARAMS, key)
    assert created
    return job


class TestStateMachine:
    def test_new_job_is_queued(self, store):
        job = open_one(store)
        assert job.state == QUEUED
        assert job.progress == 0.0
        assert job.created_at is not None
        assert job.started_at is None and job.finished_at is None

    def test_happy_path_timestamps(self, store):
        job = open_one(store)
        claim(store, job)
        store.mark_succeeded(job.job_id, result_key=KEY)
        final = store.get(job.job_id)
        assert final.state == SUCCEEDED
        assert final.created_at < final.started_at < final.finished_at
        assert final.result_key == KEY

    def test_succeeded_is_terminal(self, store):
        job = open_one(store)
        claim(store, job)
        store.mark_succeeded(job.job_id)
        assert store.claim_next() is None  # nothing claimable is left
        with pytest.raises(JobStateError, match="cannot cancel"):
            store.request_cancel(job.job_id)

    def test_queued_cannot_succeed_directly(self, store):
        job = open_one(store)
        with pytest.raises(JobStateError):
            store.mark_succeeded(job.job_id)

    def test_transition_table_covers_all_states(self):
        for state in JOB_STATES:
            with pytest.raises(JobStateError):
                ensure_transition(state, QUEUED)  # nothing re-queues

    def test_unknown_job_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.mark_succeeded("job-9999-nope")
        with pytest.raises(KeyError):
            store.request_cancel("job-9999-nope")


class TestProgress:
    def test_progress_is_monotone(self, store):
        job = open_one(store)
        claim(store, job)
        store.set_progress(job.job_id, 3, 8)
        assert store.get(job.job_id).progress == pytest.approx(3 / 8)
        store.set_progress(job.job_id, 2, 8)  # late tick: must not regress
        assert store.get(job.job_id).progress == pytest.approx(3 / 8)
        store.set_progress(job.job_id, 7, 8)
        assert store.get(job.job_id).progress == pytest.approx(7 / 8)

    def test_progress_stays_below_one_until_success(self, store):
        job = open_one(store)
        claim(store, job)
        store.set_progress(job.job_id, 8, 8)
        assert store.get(job.job_id).progress < 1.0
        store.mark_succeeded(job.job_id)
        assert store.get(job.job_id).progress == 1.0

    def test_ticks_ignored_unless_running(self, store):
        job = open_one(store)
        store.set_progress(job.job_id, 1, 2)  # still queued
        assert store.get(job.job_id).progress == 0.0
        claim(store, job)
        store.mark_failed(job.job_id, ValueError("boom"))
        store.set_progress(job.job_id, 2, 2)  # after failure
        assert store.get(job.job_id).progress == 0.0

    def test_shard_counters_follow_progress(self, store):
        job = open_one(store)
        claim(store, job)
        store.set_progress(job.job_id, 5, 12)
        snapshot = store.get(job.job_id)
        assert (snapshot.shards_done, snapshot.shards_total) == (5, 12)

    def test_shard_counters_advance_at_the_progress_cap(self, store):
        """The last shards of a big run tie at the 0.99 cap; counters must
        keep counting even though the fraction is pinned."""
        job = open_one(store)
        claim(store, job)
        for done in (198, 199, 200):
            store.set_progress(job.job_id, done, 200)
            assert store.get(job.job_id).shards_done == done
        assert store.get(job.job_id).progress < 1.0
        store.mark_succeeded(job.job_id)
        final = store.get(job.job_id)
        assert final.progress == 1.0 and final.shards_done == 200


class TestErrorCapture:
    def test_failure_records_structured_error(self, store):
        job = open_one(store)
        claim(store, job)
        try:
            raise ValueError("dataset vanished")
        except ValueError as exc:
            store.mark_failed(job.job_id, exc)
        error = store.get(job.job_id).error
        assert error.type == "ValueError"
        assert error.message == "dataset vanished"
        assert "dataset vanished" in error.traceback
        assert "test_store" in error.traceback  # real traceback, not repr

    def test_error_serialises(self, store):
        job = open_one(store)
        claim(store, job)
        store.mark_failed(job.job_id, RuntimeError("x"))
        doc = store.get(job.job_id).to_document()
        assert doc["error"]["type"] == "RuntimeError"
        assert doc["state"] == FAILED


class TestDedup:
    def test_active_job_reused(self, store):
        first, created = store.open_job("santander", PARAMS, KEY)
        second, created2 = store.open_job("santander", PARAMS, KEY)
        assert created and not created2
        assert first.job_id == second.job_id

    def test_running_job_still_dedups(self, store):
        job = open_one(store)
        claim(store, job)
        again, created = store.open_job("santander", PARAMS, KEY)
        assert not created and again.job_id == job.job_id

    def test_finished_job_does_not_dedup(self, store):
        job = open_one(store)
        claim(store, job)
        store.mark_succeeded(job.job_id)
        fresh, created = store.open_job("santander", PARAMS, KEY)
        assert created and fresh.job_id != job.job_id

    def test_distinct_keys_never_dedup(self, store):
        a = open_one(store, KEY)
        b = open_one(store, OTHER_KEY)
        assert a.job_id != b.job_id

    def test_cancelled_job_releases_key(self, store):
        job = open_one(store)
        store.request_cancel(job.job_id)  # queued -> cancelled immediately
        assert store.get(job.job_id).state == CANCELLED
        fresh, created = store.open_job("santander", PARAMS, KEY)
        assert created

    def test_open_rules_of_mine_and_stream_jobs(self, store):
        """A mine dedups on its cache key; a stream job on its dataset name
        (different parameters still return the live stream job); and a mine
        and a stream job with the same key coexist."""
        mine, created = store.open_job("santander", PARAMS, KEY)
        again, created2 = store.open_job("santander", PARAMS, KEY)
        assert created and not created2 and again.job_id == mine.job_id

        stream, created3 = store.open_job("santander", PARAMS, KEY, **STREAM_OPEN_RULE)
        assert created3 and stream.job_id != mine.job_id
        other_params = {"min_support": 9}
        resubmitted, created4 = store.open_job(
            "santander", other_params, OTHER_KEY, **STREAM_OPEN_RULE
        )
        assert not created4 and resubmitted.job_id == stream.job_id

        assert store.get(mine.job_id).state == QUEUED
        assert store.get(stream.job_id).state == QUEUED
        assert store.open_job("santander", PARAMS, KEY)[0].job_id == mine.job_id


class TestCancellation:
    def test_cancel_queued_is_immediate(self, store):
        job = open_one(store)
        cancelled = store.request_cancel(job.job_id)
        assert cancelled.state == CANCELLED
        assert cancelled.finished_at is not None

    def test_cancel_running_is_cooperative(self, store):
        job = open_one(store)
        claim(store, job)
        flagged = store.request_cancel(job.job_id)
        assert flagged.state == RUNNING  # still running until the checkpoint
        assert store.cancel_requested(job.job_id)
        store.mark_cancelled(job.job_id)
        assert store.get(job.job_id).state == CANCELLED

    def test_cancel_twice_is_idempotent(self, store):
        job = open_one(store)
        store.request_cancel(job.job_id)
        assert store.request_cancel(job.job_id).state == CANCELLED


class TestListing:
    def test_list_is_submission_ordered(self, store):
        ids = [open_one(store, key).job_id for key in (KEY, OTHER_KEY, "c" * 64)]
        assert [job.job_id for job in store.list()] == ids

    def test_status_filter(self, store):
        a = open_one(store, KEY)
        b = open_one(store, OTHER_KEY)
        claim(store, a)
        assert [j.job_id for j in store.list(RUNNING)] == [a.job_id]
        assert [j.job_id for j in store.list(QUEUED)] == [b.job_id]

    def test_unknown_status_rejected(self, store):
        with pytest.raises(JobStateError, match="unknown job status"):
            store.list("exploded")

    def test_counters(self, store):
        a = open_one(store, KEY)
        open_one(store, OTHER_KEY)
        claim(store, a)
        store.mark_succeeded(a.job_id)
        counts = store.counters()
        assert counts["succeeded"] == 1
        assert counts["queued"] == 1
        assert counts["total"] == 2

    def test_job_ids_are_readable(self, store):
        job = open_one(store)
        assert job.job_id.startswith("job-0001-")
        assert job.job_id.endswith(KEY[:10])


class TestTerminalRetention:
    def test_oldest_finished_jobs_evicted_beyond_capacity(self):
        store = make_store(terminal_capacity=2)
        finished = []
        for i in range(4):
            job, _ = store.open_job("santander", PARAMS, f"{i:064d}")
            claim(store, job)
            store.mark_succeeded(job.job_id)
            finished.append(job.job_id)
        # A new submission triggers the prune of the oldest two.
        store.open_job("santander", PARAMS, "live" + "0" * 60)
        remaining = [job.job_id for job in store.list()]
        assert finished[0] not in remaining and finished[1] not in remaining
        assert finished[2] in remaining and finished[3] in remaining

    def test_active_jobs_never_evicted(self):
        store = make_store(terminal_capacity=1)
        active, _ = store.open_job("santander", PARAMS, "a" * 64)
        claim(store, active)
        for i in range(3):
            job, _ = store.open_job("santander", PARAMS, f"{i:064d}")
            claim(store, job)
            store.mark_succeeded(job.job_id)
        store.open_job("santander", PARAMS, "z" * 64)
        assert store.get(active.job_id) is not None
        assert store.get(active.job_id).state == RUNNING

    def test_evicted_succeeded_jobs_keep_their_result_key(self):
        """Eviction drops metadata only: the job_id -> result_key mapping
        survives, so result links issued against the job id still resolve."""
        store = make_store(terminal_capacity=1)
        first, _ = store.open_job("santander", PARAMS, "a" * 64)
        claim(store, first)
        store.mark_succeeded(first.job_id, result_key="a" * 64)
        second, _ = store.open_job("santander", PARAMS, "b" * 64)
        claim(store, second)
        store.mark_succeeded(second.job_id, result_key="b" * 64)
        store.open_job("santander", PARAMS, "c" * 64)  # prunes `first`
        assert store.get(first.job_id) is None
        assert store.evicted_result_key(first.job_id) == "a" * 64
        assert store.evicted_result_key(second.job_id) is None  # not evicted
        assert store.evicted_result_key("job-0000-nope") is None

    def test_evicted_failed_jobs_leave_no_mapping(self):
        store = make_store(terminal_capacity=1)
        failed, _ = store.open_job("santander", PARAMS, "a" * 64)
        claim(store, failed)
        store.mark_failed(failed.job_id, RuntimeError("boom"))
        ok, _ = store.open_job("santander", PARAMS, "b" * 64)
        claim(store, ok)
        store.mark_succeeded(ok.job_id, result_key="b" * 64)
        store.open_job("santander", PARAMS, "c" * 64)  # prunes `failed`
        assert store.get(failed.job_id) is None
        assert store.evicted_result_key(failed.job_id) is None

    def test_evicted_mapping_is_bounded(self):
        store = make_store(terminal_capacity=1)
        store._evicted_capacity = 2  # tighten the bound for the test
        ids = []
        for index in range(4):
            job, _ = store.open_job("santander", PARAMS, f"{index:064d}")
            claim(store, job)
            store.mark_succeeded(job.job_id, result_key=job.key)
            ids.append(job.job_id)
        store.open_job("santander", PARAMS, "z" * 64)
        kept = [job_id for job_id in ids if store.evicted_result_key(job_id)]
        assert len(kept) <= 2
        assert store.evicted_result_key(ids[0]) is None  # oldest dropped first

    def test_finished_stream_jobs_count_against_capacity(self):
        """Every destructive re-upload cancels the dataset's stream job and
        a new one opens; the cancelled ones must be pruned like mines."""
        store = make_store(terminal_capacity=2)
        for _ in range(6):
            job, created = store.open_job("santander", PARAMS, KEY, **STREAM_OPEN_RULE)
            assert created
            claimed = claim(store, job)
            store.request_cancel(job.job_id)
            store.mark_cancelled(job.job_id, attempt=claimed.attempt)
        store.open_job("santander", PARAMS, OTHER_KEY)
        remaining = store.list(kind=KIND_STREAM)
        assert len(remaining) == 2
        assert all(job.state == CANCELLED for job in remaining)
        # The spans rode the job documents: the pruned jobs' went with
        # them, the kept jobs' read closed, and no span store exists.
        assert len(store.database.collection("jobs")) == 3
        assert [
            [span["status"] for span in store.spans(job.job_id)]
            for job in remaining
        ] == [["cancelled"], ["cancelled"]]
        assert "spans" not in store.database
