"""Job model: lifecycle states, the transition table, structured errors.

A *job* is one asynchronous mining run.  Its lifecycle is a small state
machine::

                      ┌──────────► cancelled
                      │                ▲
    queued ────► running ────► succeeded
                      │
                      └───────► failed

``queued → cancelled`` is the immediate path (the job never started, so no
cooperation is needed); ``running → cancelled`` is cooperative — the worker
raises :class:`~repro.core.parallel.MiningCancelled` at the engine's next
shard/component checkpoint.  Terminal states never transition again.

The registry (:class:`~repro.jobs.durable.DurableJobStore`) adds one
*recovery* edge outside this table: ``running → queued``, taken only when a
running job's **lease** lapsed (its worker died without finishing).  That
edge is deliberately not in :data:`_TRANSITIONS` — a live worker can never
take it; only lease-expiry reclamation can (see ``DurableJobStore.requeue``).

Everything here is plain data; the thread-safety and persistence live in
the registry, :class:`~repro.jobs.durable.DurableJobStore`.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "QUEUED",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JOB_KINDS",
    "KIND_MINE",
    "KIND_SHARD",
    "KIND_MERGE",
    "KIND_STREAM",
    "ATTEMPTS_EXHAUSTED",
    "JobStateError",
    "JobError",
    "Job",
    "ensure_transition",
]

QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state, in lifecycle order (the ``GET /jobs?status=`` vocabulary).
JOB_STATES = (QUEUED, RUNNING, SUCCEEDED, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED})

#: Job kinds (PR 7, distributed mining; PR 9, streaming).  A ``mine`` job
#: is the classic whole-run unit *and* the parent of a distributed run;
#: ``shard`` and ``merge`` are its claimable sub-jobs, living in the same
#: registry and moving through the same state machine under their own
#: leases.  A ``stream`` job is the *resident* incremental miner of one
#: dataset's live observation feed: top-level and claimable like a mine,
#: but long-lived — it drains appended batches, releases its claim when
#: idle, and is re-claimed when new observations arrive (or after a crash,
#: via lease expiry), replaying from its persisted high-water mark.
KIND_MINE = "mine"
KIND_SHARD = "shard"
KIND_MERGE = "merge"
KIND_STREAM = "stream"
JOB_KINDS = (KIND_MINE, KIND_SHARD, KIND_MERGE, KIND_STREAM)

#: ``JobError.type`` of a dead-lettered job: it crashed (or lost its lease)
#: on every one of its ``max_attempts`` claims and was quarantined instead
#: of being requeued forever.
ATTEMPTS_EXHAUSTED = "AttemptsExhausted"

_TRANSITIONS: dict[str, frozenset[str]] = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({SUCCEEDED, FAILED, CANCELLED}),
    SUCCEEDED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class JobStateError(ValueError):
    """An illegal lifecycle transition (e.g. cancelling a finished job)."""


def ensure_transition(old: str, new: str) -> None:
    """Validate one state-machine edge; raises :class:`JobStateError`."""
    if new not in _TRANSITIONS.get(old, frozenset()):
        raise JobStateError(f"illegal job transition {old!r} -> {new!r}")


@dataclass
class JobError:
    """Structured capture of a failed run (what ``GET /jobs/{id}`` shows)."""

    type: str
    message: str
    traceback: str | None = None

    @classmethod
    def from_exception(cls, exc: BaseException) -> "JobError":
        return cls(
            type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def to_document(self) -> dict[str, Any]:
        return {"type": self.type, "message": self.message, "traceback": self.traceback}

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "JobError":
        return cls(
            type=str(document["type"]),
            message=str(document["message"]),
            traceback=document.get("traceback"),
        )


@dataclass
class Job:
    """One asynchronous mining run and everything the API reports about it.

    Attributes
    ----------
    job_id:
        ``job-<seq>-<key prefix>`` — unique per store, prefix readable.
    dataset, parameters:
        What is being mined (parameters as their canonical document form).
    key:
        The result cache key of (dataset, parameters) — dedup identity and,
        on success, where the result landed in the result cache.
    state:
        One of :data:`JOB_STATES`.
    progress:
        Monotone fraction in [0, 1]; 1.0 exactly once succeeded.
    shards_done, shards_total:
        The progress fraction's numerator/denominator (component shards).
    created_at, started_at, finished_at:
        Epoch seconds; ``None`` until the phase is reached.
    cancel_requested:
        Set by ``POST /jobs/{id}/cancel``; the running worker polls it.
    error:
        Structured failure capture, only in the ``failed`` state.
    result_key:
        Cache key the stored result is retrievable under (success only;
        equals ``key`` for mining jobs).
    worker_id:
        Identity of the worker process currently (or last) executing the
        job; ``None`` while queued.  Stamped atomically by the durable
        registry's lease claim.
    lease_expires_at:
        Epoch seconds the current claim is valid until; renewed on progress
        updates.  A running job whose lease lapsed may be reclaimed
        (requeued) by any process — its worker is presumed dead.
    attempt:
        How many times the job has been claimed for execution (1 on the
        first claim; grows when lease expiry requeues it).
    kind:
        ``"mine"`` (a whole run / distributed parent), ``"shard"``, or
        ``"merge"`` (distributed sub-jobs; see :data:`JOB_KINDS`).
    parent_id, shard_index:
        Sub-job lineage: the distributed parent's ``job_id`` and, for
        shards, the planner-assigned index (``None`` on top-level jobs).
    distributed, planned:
        On a parent ``mine`` job: submitted for shard-level execution, and
        whether the planner step has persisted its sub-jobs yet.  A planned
        parent stays ``running`` without a lease — its completion is driven
        by its children, not by a worker.
    not_before:
        Exponential-backoff gate: a requeued job is not claimable again
        until this epoch time (``None`` = immediately claimable).
    max_attempts:
        Per-job override of the registry's dead-letter bound (``None`` =
        use the store default; ``0`` = unlimited).
    trace_id:
        The request-minted trace identifier (``X-Request-Id``), inherited
        parent → planner → shard/merge sub-jobs so every span of one
        distributed mine correlates across processes.
    elapsed_seconds, timings:
        Measured execution telemetry written back by ``complete_shard``:
        the shard's wall time and the profiler's per-phase/per-unit
        breakdown (``None`` until the shard has run) — the ground truth
        the planner's ``estimate_seed_cost`` calibration needs.
    """

    job_id: str
    dataset: str
    parameters: dict[str, Any]
    key: str
    created_at: float
    state: str = QUEUED
    progress: float = 0.0
    shards_done: int = 0
    shards_total: int = 0
    started_at: float | None = None
    finished_at: float | None = None
    cancel_requested: bool = False
    error: JobError | None = None
    result_key: str | None = None
    worker_id: str | None = None
    lease_expires_at: float | None = None
    attempt: int = 0
    kind: str = KIND_MINE
    parent_id: str | None = None
    shard_index: int | None = None
    distributed: bool = False
    planned: bool = False
    not_before: float | None = None
    max_attempts: int | None = None
    trace_id: str | None = None
    elapsed_seconds: float | None = None
    timings: dict[str, Any] | None = None
    #: Insertion-order sequence number (stable ``GET /jobs`` ordering).
    sequence: int = field(default=0, repr=False)

    def to_document(self) -> dict[str, Any]:
        """JSON-serialisable form — the ``GET /api/v1/jobs/{id}`` payload core."""
        return {
            "job_id": self.job_id,
            "dataset": self.dataset,
            "parameters": self.parameters,
            "key": self.key,
            "state": self.state,
            "progress": self.progress,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_requested,
            "error": self.error.to_document() if self.error else None,
            "result_key": self.result_key,
            "worker_id": self.worker_id,
            "lease_expires_at": self.lease_expires_at,
            "attempt": self.attempt,
            "kind": self.kind,
            "parent_id": self.parent_id,
            "shard_index": self.shard_index,
            "distributed": self.distributed,
            "planned": self.planned,
            "not_before": self.not_before,
            "max_attempts": self.max_attempts,
            "trace_id": self.trace_id,
            "elapsed_seconds": self.elapsed_seconds,
            "timings": self.timings,
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "Job":
        """Rebuild a job from its stored document (the registry's form)."""
        error = document.get("error")
        return cls(
            job_id=str(document["job_id"]),
            dataset=str(document["dataset"]),
            parameters=dict(document["parameters"]),
            key=str(document["key"]),
            created_at=float(document["created_at"]),
            state=str(document.get("state", QUEUED)),
            progress=float(document.get("progress", 0.0)),
            shards_done=int(document.get("shards_done", 0)),
            shards_total=int(document.get("shards_total", 0)),
            started_at=document.get("started_at"),
            finished_at=document.get("finished_at"),
            cancel_requested=bool(document.get("cancel_requested", False)),
            error=JobError.from_document(error) if error else None,
            result_key=document.get("result_key"),
            worker_id=document.get("worker_id"),
            lease_expires_at=document.get("lease_expires_at"),
            attempt=int(document.get("attempt", 0)),
            kind=str(document.get("kind", KIND_MINE)),
            parent_id=document.get("parent_id"),
            shard_index=document.get("shard_index"),
            distributed=bool(document.get("distributed", False)),
            planned=bool(document.get("planned", False)),
            not_before=document.get("not_before"),
            max_attempts=document.get("max_attempts"),
            trace_id=document.get("trace_id"),
            elapsed_seconds=document.get("elapsed_seconds"),
            timings=document.get("timings"),
            sequence=int(document.get("sequence", 0)),
        )
