"""Cross-process trace spans, persisted through the document store.

Every claimed-job execution writes one span document into a ``spans``
collection — the same WAL-backed store the jobs live in, so spans enjoy
the same durability: a ``kill -9`` leaves the victim's span on disk with
``status="running"``, and whoever later reclaims the lease marks it
``interrupted``.  That persisted tree is what ``repro trace <job_id>``
and ``GET /api/v1/jobs/{id}/trace`` reassemble.

Span document schema (all fields always present)::

    {
      "span_id":       "<job_id>#a<attempt>@<worker_id>",
      "trace_id":      request-minted id, inherited parent -> children,
      "job_id":        the executed job,
      "parent_job_id": the distributed parent (None for top-level jobs),
      "name":          "planner" | "mine" | "shard" | "merge",
      "kind":          the job's kind field,
      "shard_index":   int | None,
      "worker_id":     the claiming worker,
      "attempt":       the claim's attempt counter,
      "start":         epoch seconds,
      "end":           epoch seconds | None (still open),
      "status":        "running" | "ok" | "error" | "cancelled"
                       | "released" | "interrupted",
      "error":         one-line message | None,
    }

Finishing a span is a compare-and-set on ``status == "running"`` so a
late finisher can never clobber an ``interrupted``/``released`` verdict a
reclaimer already recorded — the same stale-worker discipline the job
registry itself uses.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

__all__ = ["SpanStore", "SPANS_COLLECTION", "OPEN", "CLOSED_STATUSES"]

SPANS_COLLECTION = "spans"

OPEN = "running"
CLOSED_STATUSES = ("ok", "error", "cancelled", "released", "interrupted")


def span_id(job_id: str, attempt: int, worker_id: str) -> str:
    return f"{job_id}#a{attempt}@{worker_id}"


class SpanStore:
    """Reads and writes span documents in one database's ``spans`` collection."""

    def __init__(self, database: Any) -> None:
        self.database = database
        collection = database.collection(SPANS_COLLECTION)
        collection.create_index("job_id", "hash")
        collection.create_index("trace_id", "hash")
        collection.create_index("parent_job_id", "hash")

    def _collection(self):
        return self.database.collection(SPANS_COLLECTION)

    # -- writes ----------------------------------------------------------------

    def begin(
        self,
        *,
        job_id: str,
        attempt: int,
        worker_id: str,
        name: str,
        kind: str,
        trace_id: str | None = None,
        parent_job_id: str | None = None,
        shard_index: int | None = None,
        start: float | None = None,
    ) -> str:
        """Open a span (``status="running"``); returns its span_id.

        Written *before* the work starts so a crash mid-execution leaves
        the open span behind as evidence.
        """
        sid = span_id(job_id, attempt, worker_id)
        self._collection().insert_one(
            {
                "span_id": sid,
                "trace_id": trace_id,
                "job_id": job_id,
                "parent_job_id": parent_job_id,
                "name": name,
                "kind": kind,
                "shard_index": shard_index,
                "worker_id": worker_id,
                "attempt": attempt,
                "start": time.time() if start is None else float(start),
                "end": None,
                "status": OPEN,
                "error": None,
            }
        )
        return sid

    def finish(
        self,
        sid: str,
        status: str,
        error: str | None = None,
        end: float | None = None,
    ) -> bool:
        """Close a span iff it is still open (CAS on ``status="running"``)."""
        if status not in CLOSED_STATUSES:
            raise ValueError(f"unknown span status {status!r}")
        updated = self._collection().update_if(
            {"span_id": sid},
            {"status": OPEN},
            {
                "status": status,
                "end": time.time() if end is None else float(end),
                "error": error,
            },
        )
        return updated is not None

    def close_open_spans(
        self, job_id: str, status: str, error: str | None = None
    ) -> int:
        """Close every still-open span of one job (lease reclaim, release).

        Returns how many spans were marked.  The reclaimer stamps the
        *observation* time as ``end`` — the worker died somewhere before
        it, but this is the moment the system learned about it.
        """
        closed = 0
        now = time.time()
        for document in self._collection().find({"job_id": job_id, "status": OPEN}):
            if self.finish(str(document["span_id"]), status, error=error, end=now):
                closed += 1
        return closed

    # -- reads -----------------------------------------------------------------

    def for_job(self, job_id: str) -> list[dict[str, Any]]:
        """Every span of one job, attempt order."""
        spans = self._collection().find({"job_id": job_id})
        spans.sort(key=lambda d: (int(d.get("attempt") or 0), float(d.get("start") or 0)))
        return spans

    def for_trace(self, trace_id: str) -> list[dict[str, Any]]:
        spans = self._collection().find({"trace_id": trace_id})
        spans.sort(key=lambda d: float(d.get("start") or 0))
        return spans

    def for_family(self, parent_job_id: str) -> list[dict[str, Any]]:
        """Spans of one distributed parent and all of its sub-jobs."""
        spans = self.for_job(parent_job_id)
        spans += self._collection().find({"parent_job_id": parent_job_id})
        spans.sort(key=lambda d: (str(d["job_id"]), int(d.get("attempt") or 0)))
        return spans


def public_view(document: Mapping[str, Any]) -> dict[str, Any]:
    """A span document without store bookkeeping (``_id``)."""
    return {key: value for key, value in document.items() if key != "_id"}
