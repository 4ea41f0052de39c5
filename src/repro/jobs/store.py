"""The job registry: thread-safe lifecycle tracking + dedup index.

:class:`JobStore` owns every :class:`~repro.jobs.model.Job` and is the only
place job state changes.  All mutation happens under one lock, shared by
API-handler threads (submit, cancel, poll) and executor worker threads
(running → terminal transitions, progress ticks), so readers always see a
consistent job.

Two invariants the store enforces beyond the transition table:

* **progress is monotone** — a late progress report can never move the bar
  backwards, and nothing but a successful finish sets it to 1.0;
* **one active job per cache key** — :meth:`open_job` atomically either
  reuses the queued/running job for a key or creates a fresh one, which is
  what makes ``mode=async`` submission dedup race-free.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, Mapping

from ..cache.keys import short_key
from .model import (
    CANCELLED,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobError,
    JobStateError,
    ensure_transition,
)

__all__ = ["JobStore"]


class JobStore:
    """In-memory registry of async jobs, safe for concurrent use.

    Terminal jobs are retained for polling but bounded: once more than
    ``terminal_capacity`` jobs have finished, the oldest finished ones are
    evicted (a long-lived server running parameter sweeps must not pin
    every historical job — the same reasoning as the server's bounded
    result memo).  Queued/running jobs are never evicted.
    """

    def __init__(self, clock=time.time, terminal_capacity: int = 256) -> None:
        if terminal_capacity < 1:
            raise ValueError(
                f"terminal_capacity must be >= 1, got {terminal_capacity}"
            )
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        #: cache key -> job_id of the one queued/running job for that key.
        self._active_by_key: dict[str, str] = {}
        #: job_id -> result_key for *evicted* succeeded jobs.  Eviction
        #: drops the job metadata but must not strand a ``Location:
        #: /api/v1/jobs/{id}`` link a client was handed this process
        #: lifetime: the mapping lets the job endpoint keep pointing at the
        #: still-cached result resource.  Insertion-ordered and bounded.
        self._evicted_results: dict[str, str] = {}
        self._sequence = 0
        self._clock = clock
        self._terminal_capacity = terminal_capacity
        self._evicted_capacity = max(1024, 4 * terminal_capacity)

    # -- creation / dedup -----------------------------------------------------

    def open_job(
        self,
        dataset: str,
        parameters: Mapping[str, Any],
        key: str,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """The active job for ``key``, or a new queued one — atomically.

        Returns ``(job, created)``; ``created`` is ``False`` when an
        identical (dataset, parameters) job was already in flight and is
        being reused.  Finished jobs never dedup: re-submitting after
        success simply opens a new job (which the cache will satisfy
        instantly).  ``trace_id`` ties the job to the submitting request;
        a deduped job keeps the trace of the request that created it.
        """
        with self._lock:
            active_id = self._active_by_key.get(key)
            if active_id is not None:
                return self._jobs[active_id], False
            self._sequence += 1
            job = Job(
                job_id=f"job-{self._sequence:04d}-{short_key(key)}",
                dataset=dataset,
                parameters=dict(parameters),
                key=key,
                created_at=self._clock(),
                sequence=self._sequence,
                trace_id=trace_id,
            )
            self._jobs[job.job_id] = job
            self._active_by_key[key] = job.job_id
            self._prune_terminal()
            return job, True

    # -- lookup ---------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self, status: str | None = None) -> list[Job]:
        """Jobs in submission order, optionally filtered by state."""
        if status is not None and status not in JOB_STATES:
            raise JobStateError(
                f"unknown job status {status!r}; expected one of {JOB_STATES}"
            )
        with self._lock:
            jobs: Iterable[Job] = self._jobs.values()
            if status is not None:
                jobs = (job for job in jobs if job.state == status)
            return sorted(jobs, key=lambda job: job.sequence)

    def counters(self) -> dict[str, int]:
        """Per-state job counts (the ``/admin/stats`` payload)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["total"] = len(self._jobs)
            counts["dead_lettered"] = 0  # no retry loop to dead-letter from
            return counts

    def cancel_requested(self, job_id: str) -> bool:
        """The cooperative-cancellation poll the mining control wires to."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job.cancel_requested if job is not None else False

    def evicted_result_key(self, job_id: str) -> str | None:
        """The result key of a succeeded job whose metadata was evicted.

        ``None`` for unknown ids and for evicted jobs that never produced a
        result (failed/cancelled evictions keep nothing).
        """
        with self._lock:
            return self._evicted_results.get(job_id)

    # -- lifecycle transitions ------------------------------------------------

    def mark_running(self, job_id: str) -> Job:
        with self._lock:
            job = self._require(job_id)
            ensure_transition(job.state, RUNNING)
            job.state = RUNNING
            job.started_at = self._clock()
            return job

    def set_progress(
        self, job_id: str, done: int, total: int, attempt: int | None = None
    ) -> Job:
        """Record a progress tick; monotone and capped below 1.0.

        The cap keeps ``progress == 1.0`` synonymous with "result ready":
        the last shard's tick lands at <1.0 and :meth:`mark_succeeded`
        completes the bar only once the merged result is stored.
        (``attempt`` is part of the shared registry contract; the
        in-memory store runs every job exactly once, so it is ignored.)
        """
        with self._lock:
            job = self._require(job_id)
            if job.state != RUNNING or total <= 0:
                return job
            fraction = min(max(done / total, 0.0), 1.0)
            fraction = min(fraction, 0.99)
            if fraction < job.progress:
                return job
            job.progress = fraction
            # Ties still advance the counters: the final shards of a big
            # run all land on the capped fraction, and "199/200" must keep
            # counting up even though the bar is pinned at 99%.
            if job.shards_total != total or done > job.shards_done:
                job.shards_done = done
                job.shards_total = total
            return job

    def mark_succeeded(
        self,
        job_id: str,
        result_key: str | None = None,
        attempt: int | None = None,
    ) -> Job:
        with self._lock:
            job = self._require(job_id)
            ensure_transition(job.state, SUCCEEDED)
            # Pollers read Job fields without this lock, and a terminal
            # state is their signal to stop polling — so everything a
            # terminal state promises (the result pointer, the full bar)
            # must be visible *before* the state flips.
            job.progress = 1.0
            if job.shards_total:
                job.shards_done = job.shards_total
            job.result_key = result_key
            job.state = SUCCEEDED
            self._finish(job)
            return job

    def mark_failed(
        self, job_id: str, exc: BaseException, attempt: int | None = None
    ) -> Job:
        with self._lock:
            job = self._require(job_id)
            ensure_transition(job.state, FAILED)
            job.error = JobError.from_exception(exc)  # before the state flip
            job.state = FAILED
            self._finish(job)
            return job

    def mark_cancelled(self, job_id: str, attempt: int | None = None) -> Job:
        with self._lock:
            job = self._require(job_id)
            ensure_transition(job.state, CANCELLED)
            job.state = CANCELLED
            self._finish(job)
            return job

    def request_cancel(self, job_id: str) -> Job:
        """Ask a job to stop.

        Queued jobs cancel immediately (the executor skips them); running
        jobs get the flag and cancel at the engine's next checkpoint.
        Cancelling an already-cancelled job is a no-op; any other terminal
        state raises :class:`JobStateError`.
        """
        with self._lock:
            job = self._require(job_id)
            if job.state == CANCELLED:
                return job
            if job.state in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} already finished ({job.state}); cannot cancel"
                )
            job.cancel_requested = True
            if job.state == QUEUED:
                return self.mark_cancelled(job_id)
            return job

    # -- internals ------------------------------------------------------------

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _finish(self, job: Job) -> None:
        job.finished_at = self._clock()
        if self._active_by_key.get(job.key) == job.job_id:
            del self._active_by_key[job.key]

    def _prune_terminal(self) -> None:
        """Evict the oldest finished jobs beyond the retention bound.

        Eviction removes the job *metadata* only: a succeeded job leaves
        its ``job_id → result_key`` mapping behind so result links issued
        against the job id this process lifetime still resolve (the result
        itself lives on in the ``cap_results`` store, untouched here).
        """
        terminal = sorted(
            (job for job in self._jobs.values() if job.state in TERMINAL_STATES),
            key=lambda job: job.sequence,
        )
        for job in terminal[: max(0, len(terminal) - self._terminal_capacity)]:
            if job.state == SUCCEEDED and job.result_key is not None:
                self._evicted_results[job.job_id] = job.result_key
            del self._jobs[job.job_id]
        while len(self._evicted_results) > self._evicted_capacity:
            self._evicted_results.pop(next(iter(self._evicted_results)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
