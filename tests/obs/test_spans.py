"""Trace spans on the job document: written by the registry's transitions.

A claim appends its attempt's open span in the claim's own update, and
the transition that ends the claim closes it in the same update — so a
span closes exactly when its claim ends, and a stale worker whose
transition the compare-and-set refuses can never overwrite the
``interrupted`` or ``released`` verdict a reclaimer already recorded.
"""

from __future__ import annotations

import pytest

from repro.core.parallel import MiningCancelled
from repro.jobs import DurableJobStore, JobStateError, run_job
from repro.jobs.distributed import complete_shard, finish_planning
from repro.jobs.durable import SPAN_LIMIT
from repro.obs.trace import trace_tree
from repro.store import thaw
from repro.store.database import Database
from repro.store.upgrade import upgrade

KEY = "a" * 64
PUBLIC_KEYS = {
    "span_id", "trace_id", "job_id", "parent_job_id", "name", "kind",
    "shard_index", "worker_id", "attempt", "start", "end", "status", "error",
}


class Clock:
    """A settable registry clock: leases lapse when a test says so."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_store(clock, database=None, worker_id="w") -> DurableJobStore:
    return DurableJobStore(
        database if database is not None else Database(),
        worker_id=worker_id,
        clock=clock,
        lease_seconds=10.0,
        backoff_base=0.0,
    )


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def store(clock):
    return make_store(clock)


def submit(store, key=KEY, **kwargs):
    job, created = store.open_job("d", {}, key, **kwargs)
    assert created
    return job


def claim(store, job):
    claimed = store.claim_next()
    assert claimed is not None and claimed.job_id == job.job_id
    return claimed


def spans_of(store, job_id):
    return trace_tree(store, job_id)["spans"]


def outline(store, job_id):
    return [
        (span["attempt"], span["worker_id"], span["status"])
        for span in spans_of(store, job_id)
    ]


def plan(store, parent, shards=1):
    """Claim an unplanned distributed parent and persist its plan."""
    claimed = claim(store, parent)
    units = [[{"seed": index}] for index in range(shards)]
    finish_planning(store, parent.job_id, claimed.attempt, shard_units=units)


def test_span_id_encodes_job_attempt_and_worker(clock):
    database = Database()
    first = make_store(clock, database, worker_id="w1")
    second = make_store(clock, database, worker_id="w2")
    job = submit(first)
    assert first.release(job.job_id, claim(first, job).attempt)
    claim(second, job)
    assert [span["span_id"] for span in spans_of(second, job.job_id)] == [
        f"{job.job_id}#a1@w1", f"{job.job_id}#a2@w2"
    ]


def test_begin_opens_a_running_span_with_full_schema(store, clock):
    job = submit(store, trace_id="t1")
    claim(store, job)
    (span,) = spans_of(store, job.job_id)
    # Every schema field is present even when unset — readers never .get().
    assert set(span) == PUBLIC_KEYS
    assert span["status"] == "running"
    assert span["start"] == clock.now
    assert span["end"] is None
    assert span["error"] is None
    assert span["trace_id"] == "t1"
    assert (span["name"], span["kind"]) == ("mine", "mine")
    assert (span["parent_job_id"], span["shard_index"]) == (None, None)


def test_finish_is_cas_on_running(store, clock):
    job = submit(store)
    attempt = claim(store, job).attempt
    clock.now += 1.0
    store.mark_succeeded(job.job_id, result_key=KEY, attempt=attempt)
    # The late finisher loses: the first verdict stands.
    with pytest.raises(JobStateError):
        store.mark_failed(job.job_id, RuntimeError("too late"), attempt=attempt)
    (span,) = spans_of(store, job.job_id)
    assert (span["status"], span["error"], span["end"]) == ("ok", None, clock.now)


def test_close_open_spans_marks_only_open_ones(store, clock):
    job = submit(store)
    store.release(job.job_id, claim(store, job).attempt)
    claim(store, job)
    clock.now += 5.0
    other = submit(store, key="b" * 64)
    claim(store, other)
    clock.now += 6.0  # the job's lease lapsed, the other's has not
    assert [requeued.job_id for requeued in store.reclaim_expired()] == [job.job_id]
    released, interrupted = spans_of(store, job.job_id)
    assert released["status"] == "released"
    assert interrupted["status"] == "interrupted"
    assert interrupted["end"] == clock.now  # the reclaimer's observation time
    assert interrupted["error"] == (
        "lease expired at attempt 2; worker 'w' presumed dead"
    )
    # The unrelated job's span stays open.
    assert outline(store, other.job_id) == [(1, "w", "running")]


def test_for_job_orders_by_attempt(store):
    job = submit(store)
    for _ in range(3):
        store.release(job.job_id, claim(store, job).attempt)
    assert [span["attempt"] for span in spans_of(store, job.job_id)] == [1, 2, 3]


def test_for_trace_collects_across_jobs(store):
    parent = submit(store, distributed=True, trace_id="t1")
    plan(store, parent)
    shard = store.claim_next()
    complete_shard(store, shard.job_id, shard.attempt, [], 0.1)
    merge = store.claim_next()
    store.mark_succeeded(merge.job_id, result_key=KEY, attempt=merge.attempt)
    unrelated = submit(store, key="b" * 64, trace_id="t2")
    claim(store, unrelated)
    tree = trace_tree(store, parent.job_id)
    family = tree["spans"] + [
        span for child in tree["children"] for span in child["spans"]
    ]
    assert [(span["job_id"], span["name"], span["status"]) for span in family] == [
        (parent.job_id, "planner", "ok"),
        (shard.job_id, "shard", "ok"),
        (merge.job_id, "merge", "ok"),
    ]
    assert {span["trace_id"] for span in family} == {"t1"}
    assert [span["parent_job_id"] for span in family] == [
        None, parent.job_id, parent.job_id
    ]
    assert family[1]["shard_index"] == 0


def test_public_view_strips_store_bookkeeping(store):
    job = submit(store)
    claim(store, job)
    (span,) = spans_of(store, job.job_id)
    assert "_id" not in span
    # The document keeps only what differs per claim; the job supplies
    # the rest, and the job resource's body leaves the list out.
    (kept,) = store.spans(job.job_id)
    assert set(kept) == {"attempt", "worker_id", "start", "end", "status", "error"}
    assert "spans" not in store.get(job.job_id).to_document()


# -- each transition's verdict --------------------------------------------------


def test_reclaim_interrupts_the_lost_attempt_and_refuses_its_worker(store, clock):
    job = submit(store)
    claim(store, job)
    clock.now += 11.0
    store.reclaim_expired()
    assert claim(store, job).attempt == 2
    # The first attempt's thread finishes late: refused, span untouched.
    with pytest.raises(JobStateError):
        store.mark_succeeded(job.job_id, result_key=KEY, attempt=1)
    assert outline(store, job.job_id) == [(1, "w", "interrupted"), (2, "w", "running")]
    store.mark_succeeded(job.job_id, result_key=KEY, attempt=2)
    assert outline(store, job.job_id) == [(1, "w", "interrupted"), (2, "w", "ok")]


def test_release_closes_the_span_released(store):
    job = submit(store)
    assert store.release(job.job_id, claim(store, job).attempt)
    (span,) = spans_of(store, job.job_id)
    assert (span["status"], span["error"]) == ("released", "claim released")
    assert store.get(job.job_id).state == "queued"


def test_cancel_closes_the_span_cancelled(store):
    job = submit(store)
    claimed = claim(store, job)
    store.request_cancel(job.job_id)

    def runner(control):
        control.checkpoint()
        raise AssertionError("the cancelled runner kept going")

    run_job(store, claimed, runner)
    assert store.get(job.job_id).state == "cancelled"
    assert outline(store, job.job_id) == [(1, "w", "cancelled")]


def test_runner_exception_closes_the_span_error(store):
    job = submit(store)

    def runner(control):
        raise ValueError("bad input")

    run_job(store, claim(store, job), runner)
    assert store.get(job.job_id).state == "failed"
    (span,) = spans_of(store, job.job_id)
    assert (span["status"], span["error"]) == ("error", "ValueError: bad input")


def test_aborted_runner_releases_its_claim(store):
    job = submit(store)

    def runner(control):
        raise MiningCancelled("shutting down")

    run_job(store, claim(store, job), runner, should_abort=lambda: True)
    assert outline(store, job.job_id) == [(1, "w", "released")]


def test_a_job_keeps_only_its_newest_spans(store):
    job = submit(store)
    for _ in range(3 * SPAN_LIMIT):
        store.release(job.job_id, claim(store, job).attempt)
    kept = [span["attempt"] for span in spans_of(store, job.job_id)]
    assert kept == list(range(2 * SPAN_LIMIT + 1, 3 * SPAN_LIMIT + 1))


# -- stores written before spans rode the job document ----------------------------


def test_legacy_spans_collection_is_dropped_by_upgrade(tmp_path, clock):
    path = tmp_path / "store.json"
    store = make_store(clock, Database(path))
    job = submit(store, trace_id="t1")
    store.mark_succeeded(job.job_id, result_key=KEY, attempt=claim(store, job).attempt)
    # Rewrite the store as an older release left it: the job document
    # without a span list, its span in a ``spans`` collection of its own.
    jobs = store.database.collection("jobs")
    legacy = thaw(jobs.find_one({"job_id": job.job_id}))
    del legacy["spans"]
    jobs.replace_one({"job_id": job.job_id}, legacy)
    spans = store.database.collection("spans")
    for field in ("job_id", "trace_id", "parent_job_id"):
        spans.create_index(field, "hash")
    spans.insert_one({
        "span_id": f"{job.job_id}#a1@w", "trace_id": "t1", "job_id": job.job_id,
        "parent_job_id": None, "name": "mine", "kind": "mine",
        "shard_index": None, "worker_id": "w", "attempt": 1, "start": 100.0,
        "end": 100.0, "status": "ok", "error": None,
    })
    del store

    database = Database(path)
    assert "spans" in database
    before = database.stats()["wal"]["records"]
    # The registry no longer looks for it: opening one writes nothing.
    make_store(clock, database)
    assert database.stats()["wal"]["records"] == before
    assert upgrade(path)["spans"] == 1
    database = Database(path)
    reopened = make_store(clock, database)
    assert database.stats()["wal"]["records"] == before + 1  # one ["drop"]
    assert "spans" not in database
    tree = trace_tree(reopened, job.job_id)
    assert (tree["state"], tree["trace_id"], tree["spans"]) == ("succeeded", "t1", [])
    assert "spans" not in Database(path)
