"""The durable job registry: store-backed lifecycle + lease-based claiming.

:class:`DurableJobStore` is the one job registry — the
queued→running→succeeded/failed/cancelled state machine, monotone
progress, atomic cache-key dedup — and every job lives as a document in
the ``jobs`` collection of a :class:`~repro.store.Database`.  On a
path-less database the registry is process-local with identical
semantics.  On a store path it rides :meth:`Database.exclusive`: every
transition appends one checksummed WAL record inside the store's own
cross-process critical section and is fsync'd before the lock releases,
and deletions propagate as first-class tombstone records.  A submitted
job therefore survives the process that accepted it: a restarted server
replays it from the store and :meth:`recover` puts it back to work.

**Multi-process protocol.**  Several server processes may share one
store path.  The on-disk store is the single source of truth and a
compare-and-set through :meth:`repro.store.Collection.update_if`
decides every claim exactly once across processes:

* **claiming** — a worker moves a job ``queued → running`` only via CAS,
  stamping ``{worker_id, lease_expires_at}``;
* **leases** — progress updates renew the lease; a running job whose
  lease lapsed is presumed orphaned (its worker died) and *any* process
  may requeue it (:meth:`reclaim_expired`), which is the only legal
  ``running → queued`` edge;
* **publication** — terminal transitions CAS on ``worker_id`` too, so a
  worker that lost its lease (and whose job was reclaimed and re-run
  elsewhere) cannot clobber the newer attempt's outcome.

**Job kinds.**  The registry names no kind but the default ``mine``.
Where a kind has rules of its own, it calls that kind's module at the
point the rule applies: the distributed mine's claim gate, claim crash
point, parent resolution, retention and redrive lineage are functions in
:mod:`repro.jobs.distributed`; a stream job's open rule is the keywords
:data:`repro.stream.STREAM_OPEN_RULE` passes to :meth:`open_job`.

**Bounded retries and dead-lettering.**  Every lease-expiry requeue now
backs off exponentially (``not_before`` gates the next claim) and counts
against ``max_attempts``: a job that loses its worker on every attempt —
a *poison* job that crashes whatever claims it — transitions to ``failed``
with a structured :data:`~repro.jobs.model.ATTEMPTS_EXHAUSTED` error and
its inputs are quarantined in the ``dead_letters`` collection instead of
crash-looping the fleet forever.  A dead-lettered shard fails its parent
with a precise diagnosis naming the shard.

**Trace spans.**  A job document keeps the spans of its last
:data:`SPAN_LIMIT` claims, written by the transitions above and nothing
else: the claim opens one, the transition that ends the claim closes it
(:meth:`DurableJobStore._close_span`).  ``Job.to_document`` leaves them
out; :func:`repro.obs.trace.trace_tree` reads them through :meth:`spans`.

**Fault injection.**  The crash points the recovery tests kill the server
at are real code paths here, selected by the ``REPRO_JOBS_FAULT``
environment variable (:data:`repro.faults.JOB_FAULT_POINTS`): the process
hard-exits (``os._exit``, status 70) at the named point, exactly like a
``kill -9`` landing there.  In production the variable is unset and the
checks are no-ops.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

from ..cache.cache import ResultCache
from ..cache.keys import short_key
from ..faults import JOB_FAULTS
from ..obs.metrics import get_registry
from ..store.database import Database
from . import distributed
from .model import (
    ATTEMPTS_EXHAUSTED,
    CANCELLED,
    FAILED,
    JOB_STATES,
    KIND_MINE,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobError,
    JobStateError,
    ensure_transition,
)
from .planner import PLAN_WORKERS_DEFAULT

__all__ = ["DurableJobStore"]

_JOBS = "jobs"
_DEAD_LETTERS = "dead_letters"

#: Trace spans a job document keeps: one per claim, oldest dropped first.
SPAN_LIMIT = 8
#: A span's status while its claim runs, and once a terminal state ends it.
_OPEN = "running"
_SPAN_STATUS = {SUCCEEDED: "ok", FAILED: "error", CANCELLED: "cancelled"}

#: Upper bound, in seconds, of the exponential requeue delay.
_BACKOFF_CAP = 30.0

_METRICS = get_registry()
_CLAIMS = _METRICS.counter(
    "repro_jobs_claims_total",
    "Successful job claims (queued->running CAS wins), by job kind.",
    labels=("kind",),
)
_LEASE_RENEWALS = _METRICS.counter(
    "repro_jobs_lease_renewals_total",
    "Lease extensions granted to the owning worker.",
)
_LEASE_EXPIRIES = _METRICS.counter(
    "repro_jobs_lease_expiries_total",
    "Running jobs whose lease lapsed (worker presumed dead).",
)
_REQUEUES = _METRICS.counter(
    "repro_jobs_requeues_total",
    "Lease-expiry requeues (running->queued recovery edges).",
)
_DEAD_LETTERED = _METRICS.counter(
    "repro_jobs_dead_letters_total",
    "Jobs quarantined after exhausting max_attempts.",
)
_CAS_CONFLICTS = _METRICS.counter(
    "repro_jobs_cas_conflicts_total",
    "Compare-and-set losses: stale workers refused a transition or renewal.",
)

def _cancelled(now: float) -> dict[str, Any]:
    """A claim ending ``cancelled`` outside the worker (reclaim, release)."""
    return {
        "state": CANCELLED,
        "worker_id": None,
        "lease_expires_at": None,
        "finished_at": now,
    }


def _requeued(not_before: float | None) -> dict[str, Any]:
    """The reset of a job going back to ``queued``: claim, lease and
    progress cleared, claimable from ``not_before`` on."""
    return {
        "state": QUEUED,
        "worker_id": None,
        "lease_expires_at": None,
        "started_at": None,
        "not_before": not_before,
        "progress": 0.0,
        "shards_done": 0,
        "shards_total": 0,
    }


class DurableJobStore:
    """Store-backed registry of async jobs with lease-based claiming.

    What the queue, claim loop, and handlers talk to; :meth:`claim_next`,
    :meth:`reclaim_expired`, :meth:`recover` and :meth:`refresh` are what
    multi-process serving and crash recovery build on.

    Parameters
    ----------
    database:
        The backing store.  With ``database.path`` set, every transition
        is a fsync'd WAL append and cross-process claiming is coordinated
        through the store's lock; without a path the registry is
        process-local but keeps identical semantics.
    worker_id:
        Stable identity stamped onto claimed jobs; defaults to a
        pid-derived token unique per store instance.
    lease_seconds:
        How long a claim stays valid without renewal.  Progress ticks
        renew it; pick a small value in tests so orphaned jobs are
        reclaimed quickly.
    terminal_capacity:
        Retention bound for finished jobs.  Evicted *succeeded* jobs leave
        their ``job_id → result_key`` mapping behind (see
        :meth:`evicted_result_key`; the newest ``max(1024, 4 ×
        terminal_capacity)`` are kept) so result ``Location`` links issued
        this process lifetime keep resolving.  Counted over top-level jobs
        of every kind; a pruned distributed parent takes its sub-job
        documents with it.
    max_attempts:
        Dead-letter bound: a job whose lease lapses on its Nth attempt with
        ``N >= max_attempts`` fails with a structured
        ``AttemptsExhausted`` error (inputs quarantined in the
        ``dead_letters`` collection) instead of requeueing forever.
        ``0`` disables the bound.  Per-job ``max_attempts`` overrides it.
    backoff_base:
        Exponential requeue delay: attempt *n*'s requeue sets
        ``not_before = now + min(30 s, base * 2**(n-1))``, gating
        :meth:`claim_next` so a crashing job doesn't hot-loop the fleet.
    """

    def __init__(
        self,
        database: Database,
        *,
        worker_id: str | None = None,
        clock=time.time,
        lease_seconds: float = 30.0,
        terminal_capacity: int = 1024,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if terminal_capacity < 1:
            raise ValueError(
                f"terminal_capacity must be >= 1, got {terminal_capacity}"
            )
        if max_attempts < 0:
            raise ValueError(f"max_attempts must be >= 0, got {max_attempts}")
        self.database = database
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"w{os.getpid()}-{os.urandom(3).hex()}"
        )
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        #: Whether other processes may share this registry (store-backed).
        #: Governs shutdown semantics: a shared registry's jobs are
        #: *released* for takeover instead of cancelled when this process
        #: exits (see :meth:`release` / ``JobQueue.shutdown``).
        self.shared = database.path is not None
        self._clock = clock
        self._terminal_capacity = terminal_capacity
        self._lock = threading.RLock()
        #: job_id -> result_key for evicted succeeded jobs: insertion-ordered
        #: and bounded, oldest mappings dropped first.
        self._evicted_results: dict[str, str] = {}
        self._evicted_capacity = max(1024, 4 * terminal_capacity)
        #: Minimum age between tail replays on the *cancellation poll* (the
        #: engine checkpoints between every work unit; stat-ing every log
        #: each time would tax the hot mining path).  Bounds cancel
        #: latency; set to 0 for immediate cross-process visibility.
        self.poll_refresh_seconds = 0.2
        self._last_refresh_mono = float("-inf")
        self._ensure_indexes()

    # -- locking / refresh ----------------------------------------------------

    def _ensure_indexes(self) -> None:
        collection = self.database.collection(_JOBS)
        collection.create_index("job_id", "hash")
        collection.create_index("key", "hash")
        collection.create_index("state", "hash")
        collection.create_index("parent_id", "hash")
        # The sequence counter reads the maximum off this index instead of
        # scanning (and copying) every job document per submission.
        collection.create_index("sequence", "sorted")

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """The cross-process critical section: the store's own.

        Entry replays peers' appended records, exit fsyncs ours, and the
        flock lives with the store (on the memory engine it is the
        process lock alone).
        """
        with self._lock, self.database.exclusive():
            yield

    def refresh(self, max_age: float | None = None) -> None:
        """Adopt records other processes appended since the last look.

        Cheap when nothing changed (one ``stat`` of the store log).
        Readers call this; the mutating paths refresh inside
        :meth:`_exclusive` automatically.  ``max_age`` throttles how often
        a hot poll even stats.
        """
        with self._lock:
            now = time.monotonic()
            if max_age is not None and now - self._last_refresh_mono < max_age:
                return
            self._last_refresh_mono = now
            self.database.refresh()

    def _fault_point(self, name: str) -> None:
        """An ``after-*`` crash point: it fires once the open section's
        commit (the transition it is named after) is durable."""
        self.database.after_commit(lambda: JOB_FAULTS.maybe_fault(name))

    # -- document helpers -------------------------------------------------------

    def _collection(self):
        return self.database.collection(_JOBS)

    def _doc(self, job_id: str) -> dict[str, Any] | None:
        return self._collection().find_one({"job_id": job_id})

    def _require_doc(self, job_id: str) -> dict[str, Any]:
        document = self._doc(job_id)
        if document is None:
            raise KeyError(f"unknown job {job_id!r}")
        return document

    def _job(self, document: Mapping[str, Any]) -> Job:
        return Job.from_document(document)

    def _store_document(self, job: Job) -> dict[str, Any]:
        return {**job.to_document(), "sequence": job.sequence}

    def _next_sequence(self) -> int:
        return 1 + (self._collection().max("sequence") or 0)

    def _close_span(
        self, document: Mapping[str, Any], status: str, error: str | None = None
    ) -> dict[str, Any]:
        """The ``spans`` change that closes a document's open span, or
        nothing when no span is open.  Written in the transition's own
        update, so a span closes exactly when — and only if — the claim it
        times ends."""
        spans = list(document.get("spans") or ())
        if not spans or spans[-1]["status"] != _OPEN:
            return {}
        spans[-1] = {
            **spans[-1], "end": self._clock(), "status": status, "error": error,
        }
        return {"spans": spans}

    # -- creation / dedup -------------------------------------------------------

    def open_job(
        self,
        dataset: str,
        parameters: Mapping[str, Any],
        key: str,
        *,
        kind: str = KIND_MINE,
        dedup_on: str = "key",
        id_prefix: str = "job",
        distributed: bool = False,
        plan_workers: int | None = None,
        max_attempts: int | None = None,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """The live job of ``kind`` for this submission, or a new queued one
        — atomically.

        The decision is made against the *shared* registry: a job another
        process opened dedups here too.  A live (queued or running) job of
        the same ``kind`` whose ``dedup_on`` field — ``"key"`` or
        ``"dataset"`` — matches is returned instead of a new one; sub-jobs
        are of other kinds and never absorb a submission.  The defaults are
        the ``mine`` kind's rule (dedup on the cache key, ids
        ``job-NNNN-…``); a kind with its own rule passes it in (see
        :data:`repro.stream.STREAM_OPEN_RULE`).  ``distributed=True`` marks
        a new mine for shard-level execution (the planner splits it when a
        worker claims it); ``plan_workers`` fixes the planning width the
        split uses; ``trace_id`` (the request's ``X-Request-Id``) is
        stamped on the job and inherited by its sub-jobs, correlating every
        span of one distributed mine.  Dedup keeps the *existing* job's
        trace.
        """
        with self._exclusive():
            match = key if dedup_on == "key" else dataset
            live = {dedup_on: match, "state": {"$in": [QUEUED, RUNNING]}}
            for document in self._collection().find(live):
                if document.get("kind", KIND_MINE) == kind:
                    return self._job(document), False
            sequence = self._next_sequence()
            job = Job(
                job_id=f"{id_prefix}-{sequence:04d}-{short_key(key)}",
                dataset=dataset,
                parameters=dict(parameters),
                key=key,
                created_at=self._clock(),
                kind=kind,
                distributed=distributed,
                max_attempts=max_attempts,
                trace_id=trace_id,
                sequence=sequence,
            )
            stored = self._store_document(job)
            if distributed:
                stored["plan_workers"] = int(plan_workers or PLAN_WORKERS_DEFAULT)
            self._collection().insert_one(stored)
            self._prune_terminal_locked()
            self._fault_point("after-enqueue")
            return job, True

    # -- lookup -----------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            self.refresh()
            document = self._doc(job_id)
            return self._job(document) if document is not None else None

    def spans(self, job_id: str) -> list[dict[str, Any]]:
        """The trace spans kept on one job's document, oldest first: one
        ``{attempt, worker_id, start, end, status, error}`` per claim, the
        newest :data:`SPAN_LIMIT` of them."""
        with self._lock:
            self.refresh()
            document = self._doc(job_id)
            return list(document.get("spans") or ()) if document else []

    def list(
        self,
        status: str | None = None,
        kind: str | None = KIND_MINE,
        parent_id: str | None = None,
    ) -> list[Job]:
        """Jobs in submission order, optionally filtered by state and parent.

        Defaults to mines (``kind="mine"``) so listings, local
        re-scheduling, and shutdown sweeps see parents, not their shard and
        merge sub-jobs; pass ``kind=None`` for every kind, or a specific
        kind, and ``parent_id`` for one parent's sub-jobs.
        """
        if status is not None and status not in JOB_STATES:
            raise JobStateError(
                f"unknown job status {status!r}; expected one of {JOB_STATES}"
            )
        query: dict[str, Any] = {}
        if status is not None:
            query["state"] = status
        if parent_id is not None:
            query["parent_id"] = parent_id
        with self._lock:
            self.refresh()
            documents = self._collection().find(query or None, sort="sequence")
            return [
                self._job(document)
                for document in documents
                if kind is None or document.get("kind", KIND_MINE) == kind
            ]

    def counters(self) -> dict[str, Any]:
        """Per-state job counts plus lease health (``/admin/stats``)."""
        with self._lock:
            self.refresh()
            counts: dict[str, Any] = {state: 0 for state in JOB_STATES}
            active = expired = 0
            now = self._clock()
            documents = self._collection().find()
            for document in documents:
                counts[document["state"]] += 1
                if document["state"] == RUNNING:
                    lease = document.get("lease_expires_at")
                    if lease is not None and lease < now:
                        expired += 1
                    else:
                        active += 1
            counts["total"] = len(documents)
            counts["leases"] = {"active": active, "expired": expired}
            kinds: dict[str, int] = {}
            for document in documents:
                kind = document.get("kind", KIND_MINE)
                kinds[kind] = kinds.get(kind, 0) + 1
            counts["kinds"] = kinds
            counts["dead_lettered"] = len(
                self.database.collection(_DEAD_LETTERS)
            )
            return counts

    def cancel_requested(self, job_id: str) -> bool:
        """The cooperative-cancellation poll — sees flags set by *any*
        process sharing the store (a cancel posted to server A stops the
        worker mining in server B, within ``poll_refresh_seconds``)."""
        with self._lock:
            self.refresh(max_age=self.poll_refresh_seconds)
            document = self._doc(job_id)
            return bool(document and document.get("cancel_requested"))

    def evicted_result_key(self, job_id: str) -> str | None:
        """The result key of a succeeded job whose metadata was evicted."""
        with self._lock:
            return self._evicted_results.get(job_id)

    # -- claiming / leases ------------------------------------------------------

    def claim_next(self) -> Job | None:
        """Claim the oldest *claimable* queued job, or ``None``.

        The only claim path: every execution starts here, wherever the job
        was enqueued (the claim loop rebuilds the runner from the job's
        stored document).  Atomic: the ``queued → running`` edge is a
        compare-and-set that stamps this store's ``worker_id`` and a fresh
        lease, so of all the loops racing for a job — in this process or
        another — exactly one wins.  Jobs gate on readiness
        (:meth:`_claimable_locked`).
        """
        with self._exclusive():
            queued = self._collection().find({"state": QUEUED}, sort="sequence")
            now = self._clock()
            for document in queued:
                if not self._claimable_locked(document, now):
                    continue
                claimed = self._claim_locked(document)
                if claimed is not None:
                    return claimed
            return None

    def _claimable_locked(self, document: Mapping[str, Any], now: float) -> bool:
        """Readiness gate of :meth:`claim_next`.

        A requeued job backs off until its ``not_before``; past that, the
        distributed mine gates its sub-jobs (:func:`distributed.ready`).
        """
        not_before = document.get("not_before")
        if not_before is not None and now < not_before:
            return False
        return distributed.ready(self, document)

    def _claim_locked(self, document: Mapping[str, Any]) -> Job | None:
        """Claim one queued job; the claim opens its attempt's trace span
        in the same update, so a ``kill -9`` mid-run leaves it open."""
        if document["state"] != QUEUED:
            return None
        now = self._clock()
        attempt = int(document.get("attempt", 0)) + 1
        span = {
            "attempt": attempt,
            "worker_id": self.worker_id,
            "start": now,
            "end": None,
            "status": _OPEN,
            "error": None,
        }
        spans = [*(document.get("spans") or ()), span][-SPAN_LIMIT:]
        matched = self._collection().update_if(
            {"job_id": document["job_id"]},
            {"state": QUEUED},
            {
                "state": RUNNING,
                "worker_id": self.worker_id,
                "lease_expires_at": now + self.lease_seconds,
                "started_at": now,
                "attempt": attempt,
                "spans": spans,
            },
        )
        if matched is None:  # pragma: no cover - CAS races need no lock here
            return None
        _CLAIMS.inc(document.get("kind", KIND_MINE))
        self._fault_point(distributed.claim_point(document))
        return self._job(self._require_doc(document["job_id"]))

    def renew_lease(self, job_id: str, attempt: int | None = None) -> None:
        """Extend this worker's lease on a running job (progress does this).

        ``attempt`` scopes the renewal to one claim: a stale thread whose
        claim was reclaimed (same process, same ``worker_id``, newer
        attempt) must not keep the newer claim's lease alive.
        """
        expected: dict[str, Any] = {"state": RUNNING, "worker_id": self.worker_id}
        if attempt is not None:
            expected["attempt"] = attempt
        with self._exclusive():
            now = self._clock()
            matched = self._collection().update_if(
                {"job_id": job_id},
                expected,
                {"lease_expires_at": now + self.lease_seconds},
            )
            if matched is not None:
                _LEASE_RENEWALS.inc()
            else:
                _CAS_CONFLICTS.inc()

    def reclaim_expired(self) -> list[Job]:
        """Requeue running jobs whose lease lapsed (their worker died).

        The only legal ``running → queued`` edge.  A lapsed job whose
        cancellation was requested finishes ``cancelled`` instead — its
        worker can no longer honour the flag cooperatively.
        """
        with self._exclusive():
            now = self._clock()
            reclaimed: list[Job] = []
            for document in self._collection().find({"state": RUNNING}):
                lease = document.get("lease_expires_at")
                if lease is None or lease >= now:
                    # Planned parents are lease-less by design (children
                    # drive them); live leases belong to live workers.
                    continue
                job = self._requeue_locked(document, now)
                if job.state == QUEUED:
                    reclaimed.append(job)
            distributed.resolve_parents(self, now)
            return reclaimed

    def _attempt_limit(self, document: Mapping[str, Any]) -> int:
        override = document.get("max_attempts")
        return int(override) if override is not None else self.max_attempts

    def _requeue_locked(self, document: Mapping[str, Any], now: float) -> Job:
        """Handle one lapsed lease: cancel, dead-letter, or backoff-requeue.

        The dead-letter edge is the attempt bound: the job already burned
        ``attempt`` claims (each one died without finishing), so when that
        meets its limit it fails with a structured ``AttemptsExhausted``
        error and its inputs are quarantined — a poison job must not
        crash-loop the fleet.
        """
        job_id = document["job_id"]
        _LEASE_EXPIRIES.inc()
        # The dead worker's open span becomes forensic evidence: the
        # reclaimer stamps it ``interrupted`` so the trace timeline shows
        # exactly which attempt was lost.
        interrupted = self._close_span(
            document,
            "interrupted",
            error=(
                f"lease expired at attempt {int(document.get('attempt', 0))}; "
                f"worker {document.get('worker_id')!r} presumed dead"
            ),
        )
        expected = {
            "state": RUNNING,
            "lease_expires_at": document.get("lease_expires_at"),
        }
        if document.get("cancel_requested"):
            changes = _cancelled(now)
        else:
            attempt = int(document.get("attempt", 0))
            limit = self._attempt_limit(document)
            if limit > 0 and attempt >= limit:
                kind = document.get("kind", KIND_MINE)
                error = JobError(
                    type=ATTEMPTS_EXHAUSTED,
                    message=(
                        f"{kind} job {job_id} lost its worker on all "
                        f"{attempt} of {limit} allowed attempt(s); last "
                        f"worker {document.get('worker_id')!r}. Inputs "
                        f"quarantined in the dead-letter collection."
                    ),
                )
                changes = {
                    "state": FAILED,
                    "worker_id": None,
                    "lease_expires_at": None,
                    "finished_at": now,
                    "error": error.to_document(),
                }
                self._quarantine_locked(document, now)
            else:
                delay = min(
                    _BACKOFF_CAP,
                    self.backoff_base * (2.0 ** max(0, attempt - 1)),
                )
                changes = _requeued(now + delay)
                _REQUEUES.inc()
        self._collection().update_if(
            {"job_id": job_id}, expected, {**changes, **interrupted}
        )
        return self._job(self._require_doc(job_id))

    def _quarantine_locked(self, document: Mapping[str, Any], now: float) -> None:
        """Record a dead-lettered job's inputs (insert-if-missing)."""
        letters = self.database.collection(_DEAD_LETTERS)
        if letters.find_one({"job_id": document["job_id"]}) is not None:
            return
        _DEAD_LETTERED.inc()
        letters.insert_one(
            {
                "job_id": document["job_id"],
                "kind": document.get("kind", KIND_MINE),
                "parent_id": document.get("parent_id"),
                "dataset": document.get("dataset"),
                "parameters": document.get("parameters"),
                "units": document.get("units"),
                "attempts": int(document.get("attempt", 0)),
                "max_attempts": self._attempt_limit(document),
                "last_worker": document.get("worker_id"),
                "quarantined_at": now,
            }
        )

    # -- progress ---------------------------------------------------------------

    def set_progress(
        self, job_id: str, done: int, total: int, attempt: int | None = None
    ) -> Job:
        """Record a progress tick; monotone, capped below 1.0, lease-renewing.

        Ticks write through: one appended record per tick is cheap, and
        it renews the lease inline (an extra field on the same record, once
        two thirds of the lease remain) instead of taking a second critical
        section.  The monotone rule is per *attempt* — a requeued job
        legitimately starts over at 0 — and a tick carrying an ``attempt``
        is ignored unless it matches the current claim (a stale thread of
        this same process must not touch a newer attempt's progress or
        lease).
        """
        with self._exclusive():
            document = self._doc(job_id)
            if (
                document is None
                or document["state"] != RUNNING
                or document.get("worker_id") != self.worker_id
                or (attempt is not None and document.get("attempt") != attempt)
                or total <= 0
            ):
                return self._job(document) if document else None  # type: ignore[return-value]
            fraction = min(min(max(done / total, 0.0), 1.0), 0.99)
            changes: dict[str, Any] = {}
            if fraction >= document.get("progress", 0.0):
                changes["progress"] = fraction
                if (
                    document.get("shards_total") != total
                    or done > document.get("shards_done", 0)
                ):
                    changes["shards_done"] = done
                    changes["shards_total"] = total
            lease = document.get("lease_expires_at")
            if (
                lease is not None
                and lease - self._clock() < self.lease_seconds * (2.0 / 3.0)
            ):
                changes["lease_expires_at"] = self._clock() + self.lease_seconds
            if changes:
                expected: dict[str, Any] = {
                    "state": RUNNING,
                    "worker_id": self.worker_id,
                }
                if attempt is not None:
                    expected["attempt"] = attempt
                self._collection().update_if(
                    {"job_id": job_id}, expected, changes
                )
                document = self._doc(job_id) or document
            return self._job(document)

    # -- terminal transitions ---------------------------------------------------

    def mark_succeeded(
        self,
        job_id: str,
        result_key: str | None = None,
        attempt: int | None = None,
    ) -> Job:
        with self._exclusive():
            document = self._require_doc(job_id)
            ensure_transition(document["state"], SUCCEEDED)
            self._finish_locked(
                document,
                SUCCEEDED,
                {
                    "progress": 1.0,
                    "shards_done": document.get("shards_total", 0)
                    or document.get("shards_done", 0),
                    "result_key": result_key,
                },
                expected_attempt=attempt,
                fault_before="before-succeed-persist",
                fault_after="after-succeed-persist",
            )
            return self._job(self._require_doc(job_id))

    def mark_failed(
        self, job_id: str, exc: BaseException, attempt: int | None = None
    ) -> Job:
        with self._exclusive():
            document = self._require_doc(job_id)
            ensure_transition(document["state"], FAILED)
            self._finish_locked(
                document,
                FAILED,
                {"error": JobError.from_exception(exc).to_document()},
                expected_attempt=attempt,
            )
            return self._job(self._require_doc(job_id))

    def mark_cancelled(self, job_id: str, attempt: int | None = None) -> Job:
        with self._exclusive():
            document = self._require_doc(job_id)
            ensure_transition(document["state"], CANCELLED)
            self._finish_locked(document, CANCELLED, {}, expected_attempt=attempt)
            return self._job(self._require_doc(job_id))

    def _finish_locked(
        self,
        document: Mapping[str, Any],
        state: str,
        extra: Mapping[str, Any],
        expected_attempt: int | None = None,
        fault_before: str | None = None,
        fault_after: str | None = None,
    ) -> None:
        """One terminal transition, ownership-checked and persisted.

        From ``running``, the CAS re-checks ``worker_id`` *and* — when the
        caller passes its claim's ``expected_attempt`` — the attempt
        counter: a worker whose lease lapsed and whose job was requeued and
        re-claimed gets a :class:`JobStateError` instead of clobbering the
        newer attempt.  The attempt check matters within one process too,
        where every claim-loop thread shares one ``worker_id``.  The same
        update closes the claim's span ``ok``, ``error`` or ``cancelled``.
        """
        expected: dict[str, Any] = {"state": document["state"]}
        if document["state"] == RUNNING:
            expected["worker_id"] = self.worker_id
            if expected_attempt is not None:
                expected["attempt"] = expected_attempt
        error = extra.get("error")
        changes = {
            **extra,
            "state": state,
            "finished_at": self._clock(),
            "lease_expires_at": None,
            **self._close_span(
                document,
                _SPAN_STATUS[state],
                f"{error['type']}: {error['message']}" if error else None,
            ),
        }
        if fault_before is not None:
            # Crash *before* the transition reaches disk: the section
            # commits at its exit, so this drops the update with it.
            JOB_FAULTS.maybe_fault(fault_before)
        matched = self._collection().update_if(
            {"job_id": document["job_id"]}, expected, changes
        )
        if matched is None:
            _CAS_CONFLICTS.inc()
            raise JobStateError(
                f"job {document['job_id']} is no longer owned by "
                f"{self.worker_id!r} (lease lost); refusing the "
                f"{document['state']!r} -> {state!r} transition"
            )
        if fault_after is not None:
            self._fault_point(fault_after)

    def request_cancel(self, job_id: str) -> Job:
        """Ask a job to stop; immediate when queued, cooperative when running.

        The flag is persisted, so whichever process's worker holds the
        lease sees it at its next checkpoint poll.  Cancelling a planned
        distributed parent propagates to its sub-jobs: queued children
        cancel at once, running ones get the flag, and the resolution pass
        completes the parent when the last child stops.
        """
        with self._exclusive():
            document = self._require_doc(job_id)
            if document["state"] == CANCELLED:
                return self._job(document)
            if document["state"] in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} already finished ({document['state']}); "
                    f"cannot cancel"
                )
            now = self._clock()
            self._collection().update_one(
                {"job_id": job_id}, {"cancel_requested": True}
            )
            if document["state"] == QUEUED:
                self._collection().update_if(
                    {"job_id": job_id},
                    {"state": QUEUED},
                    {"state": CANCELLED, "finished_at": now},
                )
            elif document.get("planned"):
                # The resolution pass propagates the flag to the children.
                distributed.resolve_parents(self, now)
            return self._job(self._require_doc(job_id))

    def release(
        self,
        job_id: str,
        attempt: int | None = None,
        *,
        retry_in: float | None = None,
    ) -> bool:
        """Voluntarily give a claim back (graceful shutdown, not a crash).

        CAS-guarded ``running → queued`` with no backoff gate: the job is
        immediately claimable by any surviving process — takeover does not
        wait out the lease.  If cancellation was requested meanwhile, the
        release completes it instead.  Returns whether this worker still
        owned the claim.

        ``retry_in`` sets a short ``not_before`` gate instead of immediate
        claimability — the resident stream job's idle cadence: drained, it
        releases with a sub-second gate so a claim loop re-claims it on a
        beat instead of spinning.
        """
        expected: dict[str, Any] = {
            "state": RUNNING,
            "worker_id": self.worker_id,
        }
        if attempt is not None:
            expected["attempt"] = attempt
        with self._exclusive():
            document = self._doc(job_id)
            if document is None:
                return False
            if document.get("cancel_requested"):
                changes = _cancelled(self._clock())
            else:
                changes = _requeued(
                    self._clock() + retry_in if retry_in is not None else None
                )
            changes.update(
                self._close_span(document, "released", error="claim released")
            )
            matched = self._collection().update_if(
                {"job_id": job_id}, expected, changes
            )
            return matched is not None

    def redrive(self, job_ids: Sequence[str] | None = None) -> list[str]:
        """Replay quarantined dead-letter entries as fresh work.

        For each ``dead_letters`` entry (optionally filtered to
        ``job_ids``), the original failed job document is revived in place:
        CAS back to ``queued`` with its **attempt counter reset to 0**, the
        error and backoff gate cleared — an operator-sanctioned second
        life after the poison-input (or flaky-infrastructure) episode the
        quarantine recorded.  Reviving a dead-lettered *sub-job* also
        restores the lineage its failure tore down: the failed planned
        parent returns to its lease-less running form and cancelled
        siblings are requeued with fresh counters, so the distributed mine
        can finish.  Consumed entries leave the dead-letter collection.

        Like lease reclamation, this deliberately steps outside the
        lifecycle table (``failed → queued`` is not a worker-legal edge) —
        it is an administrative transition, applied under the registry's
        critical section with CAS guards so a concurrently revived or
        re-failed job is never clobbered.  Returns the revived job ids.
        """
        fresh = {
            **_requeued(None),
            "attempt": 0,
            "finished_at": None,
            "error": None,
            "cancel_requested": False,
        }
        wanted = set(job_ids) if job_ids is not None else None
        redriven: list[str] = []
        with self._exclusive():
            letters = self.database.collection(_DEAD_LETTERS)
            for entry in letters.find(sort="quarantined_at"):
                job_id = str(entry["job_id"])
                if wanted is not None and job_id not in wanted:
                    continue
                document = self._doc(job_id)
                if document is None:
                    # The job was pruned with its parent; the quarantine
                    # record is all that is left — drop it.
                    letters.delete_many({"job_id": job_id})
                    continue
                if document["state"] != FAILED:
                    continue  # already revived, or resolved another way
                if (
                    self._collection().update_if(
                        {"job_id": job_id}, {"state": FAILED}, fresh
                    )
                    is None
                ):
                    continue
                distributed.restore_lineage(self, document, fresh)
                letters.delete_many({"job_id": job_id})
                redriven.append(job_id)
        return redriven

    # -- recovery ---------------------------------------------------------------

    def recover(self) -> dict[str, list[str]]:
        """Startup recovery over the shared registry.

        * ``running`` jobs with a lapsed lease are requeued (their worker
          died mid-mine); live leases are left alone — another process may
          legitimately be mining them right now.
        * ``succeeded`` jobs are *republished*: their result documents are
          checked against the result cache, so the job resource keeps
          answering (and linking to its PR 4 result resource) after a
          restart; a succeeded job whose result document is gone is
          reported, not re-run (results are only deleted deliberately).
        * ``queued`` jobs are reported; any claim loop on the store picks
          them up, so a restart finishes what the dead process accepted.
        * planned distributed parents are left ``running`` (they are
          lease-less by design); instead the child-resolution pass runs, so
          a parent whose shard dead-lettered while every server was down
          still fails with its diagnosis.  Jobs that exhausted
          ``max_attempts`` during this recovery are reported under
          ``dead_lettered``.
        """
        summary: dict[str, list[str]] = {
            "requeued": [],
            "republished": [],
            "missing_results": [],
            "dead_lettered": [],
            "queued": [],
        }
        results = ResultCache(self.database)
        with self._exclusive():
            now = self._clock()
            for document in self._collection().find(sort="sequence"):
                state = document["state"]
                if state == RUNNING:
                    if document.get("planned"):
                        continue  # child-driven; resolved below
                    lease = document.get("lease_expires_at")
                    if lease is None or lease < now:
                        job = self._requeue_locked(document, now)
                        if job.state == QUEUED:
                            summary["requeued"].append(job.job_id)
                        elif job.state == FAILED:
                            summary["dead_lettered"].append(job.job_id)
                elif state == SUCCEEDED:
                    key = document.get("result_key")
                    if key and results.document(key) is None:
                        summary["missing_results"].append(document["job_id"])
                    else:
                        summary["republished"].append(document["job_id"])
            distributed.resolve_parents(self, now)
            for document in self._collection().find(
                {"state": QUEUED}, sort="sequence"
            ):
                summary["queued"].append(document["job_id"])
        return summary

    # -- retention --------------------------------------------------------------

    def _prune_terminal_locked(self) -> None:
        """Evict the oldest finished top-level jobs beyond the retention bound.

        Capacity counts top-level jobs of every kind (no ``parent_id``).  A
        pruned distributed parent takes its sub-jobs with it
        (:func:`distributed.prune`), so sub-jobs can never outlive
        — or evict — the parents they feed.  Counting copies no document;
        only the overflow is fetched.
        """
        jobs = self._collection()
        finished = {"state": {"$in": sorted(TERMINAL_STATES)}, "parent_id": None}
        overflow = jobs.count(finished) - self._terminal_capacity
        if overflow <= 0:
            return
        for document in jobs.find(finished, sort="sequence", limit=overflow):
            job_id = document["job_id"]
            if document["state"] == SUCCEEDED and document.get("result_key"):
                self._evicted_results[job_id] = document["result_key"]
            jobs.delete_many({"job_id": job_id})
            distributed.prune(self, job_id)
        while len(self._evicted_results) > self._evicted_capacity:
            self._evicted_results.pop(next(iter(self._evicted_results)))
