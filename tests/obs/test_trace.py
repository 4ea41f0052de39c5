"""Trace reassembly: the JSON tree shape and the ASCII waterfall.

``trace_tree`` reads each job's kept spans off its document through a
:class:`~repro.jobs.DurableJobStore`; these tests drive a path-less
registry through real claims and transitions — the full multi-process
integration is exercised by the fault harness
(``tests/server/test_distributed_jobs.py``).
"""

from __future__ import annotations

import pytest

from repro.jobs.distributed import complete_shard
from repro.obs.trace import render_waterfall, trace_tree
from repro.store.database import Database

from tests.obs.test_spans import KEY, Clock, claim, make_store, plan, submit


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def store(clock):
    return make_store(clock)


def test_unknown_job_raises_key_error(store):
    with pytest.raises(KeyError):
        trace_tree(store, "nope")


def test_plain_job_tree_has_no_children(store, clock):
    job = submit(store, trace_id="t1")
    attempt = claim(store, job).attempt
    clock.now += 1.0
    store.mark_succeeded(job.job_id, result_key=KEY, attempt=attempt)
    tree = trace_tree(store, job.job_id)
    assert tree["job_id"] == job.job_id
    assert tree["children"] == []
    (span,) = tree["spans"]
    assert span["status"] == "ok"
    assert "_id" not in span


def test_distributed_tree_orders_shards_then_merge(store):
    parent = submit(store, distributed=True, trace_id="t1")
    plan(store, parent, shards=2)
    timings = {"phases": {"search": {"seconds": 0.08, "count": 1}}, "units": []}
    for elapsed in (0.1, 0.2):
        shard = store.claim_next()
        complete_shard(
            store, shard.job_id, shard.attempt, [], elapsed,
            timings=timings if elapsed == 0.1 else None,
        )
    tree = trace_tree(store, parent.job_id)
    assert [node["job_id"] for node in tree["children"]] == [
        f"{parent.job_id}-s000", f"{parent.job_id}-s001", f"{parent.job_id}-merge"
    ]
    assert tree["children"][0]["elapsed_seconds"] == 0.1
    assert tree["children"][0]["timings"]["phases"]["search"]["count"] == 1


def _crashed_shard_tree(clock):
    """A parent whose shard 0 was interrupted and recomputed elsewhere."""
    database = Database()
    doomed = make_store(clock, database, worker_id="doomed")
    survivor = make_store(clock, database, worker_id="survivor")
    parent = submit(doomed, distributed=True, trace_id="t1")
    clock.now += 1.0
    plan(doomed, parent)
    doomed.claim_next()  # shard 0, then the worker dies
    clock.now += 11.0
    survivor.reclaim_expired()
    shard = survivor.claim_next()
    assert shard.attempt == 2
    clock.now += 1.0
    complete_shard(survivor, shard.job_id, shard.attempt, [], 0.05)
    return trace_tree(survivor, parent.job_id)


def test_waterfall_shows_one_row_per_attempt(clock):
    rendered = render_waterfall(_crashed_shard_tree(clock))
    lines = rendered.splitlines()
    assert lines[0].startswith("trace t1 · job job-0001-")
    assert "(mine)" in lines[0]
    bar_lines = [line for line in lines if "|" in line]
    # planner + interrupted attempt + recompute attempt = three bars.
    assert len(bar_lines) == 3
    interrupted = next(line for line in bar_lines if "interrupted" in line)
    assert "a1" in interrupted and "doomed" in interrupted and "x" in interrupted
    recompute = next(line for line in bar_lines if "survivor" in line)
    assert "a2" in recompute and "ok" in recompute
    assert any("error: lease expired at attempt 1" in line for line in lines)
    # Measured wall-times section and the glyph legend close the render.
    assert any("measured shard wall-times" in line for line in lines)
    assert lines[-1].startswith("legend:")


def test_waterfall_marks_open_spans_as_running(store):
    job = submit(store)
    claim(store, job)
    rendered = render_waterfall(trace_tree(store, job.job_id))
    row = next(line for line in rendered.splitlines() if "|" in line)
    assert "running" in row
    assert "open" in row  # no end time yet
    assert "?" in row


def test_waterfall_without_spans_says_so(store):
    job = submit(store)
    rendered = render_waterfall(trace_tree(store, job.job_id))
    assert "(no spans persisted for this job)" in rendered
