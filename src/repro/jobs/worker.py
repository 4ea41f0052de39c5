"""The lease-polling job worker: multi-process serving's execution loop.

A :class:`JobWorker` thread turns any process holding a
:class:`~repro.jobs.durable.DurableJobStore` into a mining worker for the
*shared* registry, not just for jobs submitted to this process:

* it reclaims running jobs whose lease lapsed (their worker died), then
* claims the oldest queued job — wherever it was enqueued — rebuilds its
  runner from the stored (dataset, parameters) via the ``runner_factory``,
  and executes it through the same
  :func:`~repro.jobs.executor.run_claimed_job` tail the executor uses.

Both steps are compare-and-set claims, so any number of workers across any
number of processes execute each job exactly once.  The loop never dies on
an error: a failed claim or a crashed runner-factory marks the job failed
(or just skips the tick) and the next interval retries.
"""

from __future__ import annotations

import threading
from typing import Callable

from .durable import DurableJobStore
from .executor import JobRunner, run_claimed_job
from .model import Job

__all__ = ["JobWorker"]

#: Builds the executable work for a claimed job (typically
#: ``ServerState.runner_for_job``: load dataset, parse parameters, mine).
RunnerFactory = Callable[[Job], JobRunner]


class JobWorker(threading.Thread):
    """Daemon thread that claims and executes jobs from a durable registry."""

    def __init__(
        self,
        store: DurableJobStore,
        runner_factory: RunnerFactory,
        interval: float = 1.0,
        name: str | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"poll interval must be > 0, got {interval}")
        super().__init__(daemon=True, name=name or f"job-worker-{store.worker_id}")
        self.store = store
        self.runner_factory = runner_factory
        self.interval = float(interval)
        self._stopping = threading.Event()
        #: ``(job_id, attempt)`` of the claim being executed right now.
        self._current: tuple[str, int] | None = None

    def stop(self, wait: bool = False) -> None:
        """Ask the loop to exit; ``wait=True`` joins the thread.

        Graceful shutdown releases the claim being executed *immediately*
        (CAS back to queued), so a surviving process takes the job over
        now instead of waiting out the lease.  The runner also aborts at
        its next engine checkpoint; its late release attempt then
        CAS-fails silently (the claim is no longer this worker's).
        """
        self._stopping.set()
        current = self._current
        if current is not None:
            try:
                self.store.release(*current)
            except Exception:
                pass  # shutdown must not die on a store hiccup
        if wait and self.is_alive():
            self.join()

    def run(self) -> None:  # pragma: no cover - exercised via subprocesses
        while not self._stopping.is_set():
            try:
                worked = self._tick()
            except Exception:
                # Never die: a transient store error (e.g. a log swapped by
                # a peer's compaction mid-read) retries next tick.
                worked = False
            if worked:
                continue  # drain the queue before sleeping again
            self._stopping.wait(self.interval)

    def _tick(self) -> bool:
        """One poll: reclaim lapsed leases, then run one queued job."""
        self.store.reclaim_expired()
        job = self.store.claim_next()
        if job is None:
            return False
        try:
            runner = self.runner_factory(job)
        except BaseException as exc:  # noqa: BLE001 - job must not stay leased
            from .model import JobStateError

            try:
                self.store.mark_failed(job.job_id, exc, attempt=job.attempt)
            except JobStateError:
                pass
            return True
        self._current = (job.job_id, job.attempt)
        try:
            run_claimed_job(
                self.store, job, runner, should_abort=self._stopping.is_set
            )
        finally:
            self._current = None
        return True
