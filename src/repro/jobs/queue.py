"""The job queue: submit, then claim loops run what was submitted.

:class:`JobQueue` is what the server and CLI submit through — it composes
the registry (:class:`~repro.jobs.durable.DurableJobStore`) with the claim
loop (:class:`~repro.jobs.executor.ClaimLoop`).  A mine submission is
identified by the *result cache key* of its (dataset, parameters) pair,
the same canonical hash Section 3.3 caches results under, so "identical
job already in flight" and "result already cached" are decided by one
piece of machinery.  Submitting only writes the job (the registry's
``open_job`` applies the kind's dedup rule) and wakes an idle loop; the
loop claims it and builds its runner from the stored document like any
other job.  Everything else — lookups, cancellation, listings — is the
registry's, at ``queue.store``.
"""

from __future__ import annotations

from typing import Any, Mapping

from .durable import DurableJobStore
from .executor import ClaimLoop, RunnerFactory
from .model import TERMINAL_STATES, Job, JobStateError

__all__ = ["JobQueue"]


class JobQueue:
    """Asynchronous jobs: dedup'd submission, executed by claim loops.

    ``store`` is the registry (a server's is bound to its own database;
    the CLI's ``mine --async`` uses one over a fresh in-memory database).
    ``runner_factory(job)`` builds each claimed job's work; ``width``
    loop threads claim jobs, and idle ones look again every
    ``poll_seconds`` (or at once when a job is submitted here).
    """

    def __init__(
        self,
        store: DurableJobStore,
        runner_factory: RunnerFactory,
        width: int = 2,
        poll_seconds: float = 1.0,
    ) -> None:
        self.store = store
        self.loop = ClaimLoop(self.store, runner_factory, width, poll_seconds)

    def submit(
        self,
        dataset: str,
        parameters: Mapping[str, Any],
        key: str,
        **open_kwargs: Any,
    ) -> tuple[Job, bool]:
        """Submit a job; returns ``(job, created)``.

        ``created=False`` means a live job the open rule matches (for a
        mine, the same cache ``key``) was already queued or running and is
        returned instead.  Extra keyword arguments (``distributed=``,
        ``plan_workers=``, ``max_attempts=``, ``trace_id=``, or a kind's
        open rule such as :data:`repro.stream.STREAM_OPEN_RULE`) pass
        through to the store's ``open_job``.
        """
        job, created = self.store.open_job(dataset, parameters, key, **open_kwargs)
        if created:
            self.loop.wake()
        return job, created

    def counters(self) -> dict[str, int]:
        counts: dict[str, Any] = self.store.counters()
        counts["executor_width"] = self.loop.width
        return counts

    def shutdown(self, wait: bool = False) -> None:
        """Stop the queue promptly without forfeiting shared work.

        Process-local registry (path-less database): cancel every
        non-terminal job, so running mines abort at their next checkpoint
        and a Ctrl-C exits promptly.

        Shared (store-backed) registry: cancelling would kill work other
        processes can still finish, so instead this process's claims are
        *released* (CAS back to queued) for immediate takeover and its
        in-flight runs abort at their next checkpoint; jobs it never
        claimed are simply left for the fleet.
        """
        if not self.store.shared:
            for job in self.store.list(kind=None):
                if job.state not in TERMINAL_STATES:
                    try:
                        self.store.request_cancel(job.job_id)
                    except JobStateError:
                        pass  # finished between the list and the cancel
        self.loop.shutdown(wait=wait)
