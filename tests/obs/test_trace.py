"""Trace reassembly: the JSON tree shape and the ASCII waterfall.

``trace_tree`` only needs ``get``/``children`` and a ``spans`` store, so
these tests drive it with a minimal registry double over a *real*
:class:`SpanStore` — the full durable integration is exercised by the
fault harness (``tests/server/test_distributed_jobs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.obs.spans import SpanStore
from repro.obs.trace import render_waterfall, trace_tree
from repro.store.database import Database


@dataclass
class FakeJob:
    job_id: str
    kind: str = "mine"
    shard_index: int | None = None
    state: str = "succeeded"
    attempt: int = 1
    worker_id: str | None = "w"
    trace_id: str | None = "t1"
    elapsed_seconds: float | None = None
    timings: dict[str, Any] | None = None
    distributed: bool = False


@dataclass
class FakeRegistry:
    spans: SpanStore
    jobs: dict[str, FakeJob] = field(default_factory=dict)
    child_map: dict[str, list[FakeJob]] = field(default_factory=dict)

    def get(self, job_id: str) -> FakeJob | None:
        return self.jobs.get(job_id)

    def list(self, kind: str | None, parent_id: str) -> list[FakeJob]:
        return self.child_map.get(parent_id, [])


@pytest.fixture()
def registry():
    return FakeRegistry(spans=SpanStore(Database()))


def test_unknown_job_raises_key_error(registry):
    with pytest.raises(KeyError):
        trace_tree(registry, "nope")


def test_plain_job_tree_has_no_children(registry):
    registry.jobs["job-1"] = FakeJob("job-1")
    sid = registry.spans.begin(
        job_id="job-1", attempt=1, worker_id="w", name="mine", kind="mine",
        trace_id="t1", start=10.0,
    )
    registry.spans.finish(sid, "ok", end=11.0)
    tree = trace_tree(registry, "job-1")
    assert tree["job_id"] == "job-1"
    assert tree["children"] == []
    (span,) = tree["spans"]
    assert span["status"] == "ok"
    assert "_id" not in span


def test_distributed_tree_orders_shards_then_merge(registry):
    registry.jobs["p"] = FakeJob("p", distributed=True)
    shard1 = FakeJob("p-s001", kind="shard", shard_index=1, elapsed_seconds=0.2)
    shard0 = FakeJob(
        "p-s000", kind="shard", shard_index=0, elapsed_seconds=0.1,
        timings={"phases": {"search": {"seconds": 0.08, "count": 1}}, "units": []},
    )
    merge = FakeJob("p-merge", kind="merge")
    registry.child_map["p"] = [merge, shard1, shard0]
    tree = trace_tree(registry, "p")
    assert [node["job_id"] for node in tree["children"]] == [
        "p-s000", "p-s001", "p-merge"
    ]
    assert tree["children"][0]["elapsed_seconds"] == 0.1
    assert tree["children"][0]["timings"]["phases"]["search"]["count"] == 1


def _crashed_shard_tree(registry):
    """A parent whose shard 0 was interrupted and recomputed elsewhere."""
    registry.jobs["p"] = FakeJob("p", distributed=True)
    shard = FakeJob(
        "p-s000", kind="shard", shard_index=0, attempt=2,
        worker_id="survivor", elapsed_seconds=0.05,
    )
    registry.child_map["p"] = [shard]
    planner = registry.spans.begin(
        job_id="p", attempt=1, worker_id="doomed", name="planner",
        kind="mine", trace_id="t1", start=0.0,
    )
    registry.spans.finish(planner, "ok", end=1.0)
    registry.spans.begin(
        job_id="p-s000", attempt=1, worker_id="doomed", name="shard",
        kind="shard", trace_id="t1", parent_job_id="p", start=1.0,
    )
    registry.spans.close_open_spans("p-s000", "interrupted", error="lease lapsed")
    retry = registry.spans.begin(
        job_id="p-s000", attempt=2, worker_id="survivor", name="shard",
        kind="shard", trace_id="t1", parent_job_id="p", start=3.0,
    )
    registry.spans.finish(retry, "ok", end=4.0)
    return trace_tree(registry, "p")


def test_waterfall_shows_one_row_per_attempt(registry):
    rendered = render_waterfall(_crashed_shard_tree(registry))
    lines = rendered.splitlines()
    assert lines[0].startswith("trace t1 · job p (mine)")
    bar_lines = [line for line in lines if "|" in line]
    # planner + interrupted attempt + recompute attempt = three bars.
    assert len(bar_lines) == 3
    interrupted = next(line for line in bar_lines if "interrupted" in line)
    assert "a1" in interrupted and "doomed" in interrupted and "x" in interrupted
    recompute = next(line for line in bar_lines if "survivor" in line)
    assert "a2" in recompute and "ok" in recompute
    assert any("error: lease lapsed" in line for line in lines)
    # Measured wall-times section and the glyph legend close the render.
    assert any("measured shard wall-times" in line for line in lines)
    assert lines[-1].startswith("legend:")


def test_waterfall_marks_open_spans_as_running(registry):
    registry.jobs["job-1"] = FakeJob("job-1", state="running")
    registry.spans.begin(
        job_id="job-1", attempt=1, worker_id="w", name="mine", kind="mine",
        start=5.0,
    )
    rendered = render_waterfall(trace_tree(registry, "job-1"))
    row = next(line for line in rendered.splitlines() if "|" in line)
    assert "running" in row
    assert "open" in row  # no end time yet
    assert "?" in row


def test_waterfall_without_spans_says_so(registry):
    registry.jobs["job-1"] = FakeJob("job-1")
    rendered = render_waterfall(trace_tree(registry, "job-1"))
    assert "(no spans persisted for this job)" in rendered
