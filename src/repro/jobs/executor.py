"""The background executor: worker threads driving mining runs.

A thin wrapper over :class:`concurrent.futures.ThreadPoolExecutor` —
threads, not processes, because the heavy lifting already happens in the
PR 2 process pool (:mod:`repro.core.parallel`): the job thread is the
*driver* of that pool (or of the in-process component loop), spending its
life waiting on shard completions, so a handful of threads oversees many
cores without oversubscription.

:func:`run_job` is the worker-side wrapper around one run: it performs the
``queued → running`` transition — against the durable registry that is an
atomic lease *claim*, so executors and pollers racing across processes
resolve to exactly one winner — wires a
:class:`~repro.core.parallel.MiningControl` to the store (progress ticks in,
cancellation polls out), and maps the outcome onto the state machine —
return value → ``succeeded``, :class:`MiningCancelled` → ``cancelled``, any
other exception → ``failed`` with structured capture.
:func:`run_claimed_job` is the same tail for a job already claimed through
``DurableJobStore.claim_next`` (the polling worker's path).

When ``REPRO_JOBS_EXEC_LOG`` names a file, every execution appends one
``job_id worker attempt=N`` line to it (``O_APPEND``-atomic).  The
fault-injection harness uses this to assert exactly-once execution across
processes; in production the variable is unset and nothing is written.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from ..core.parallel import MiningCancelled, MiningControl
from ..obs.logging import log_context
from .model import KIND_MINE, QUEUED, Job, JobStateError

__all__ = ["HANDLED", "JobExecutor", "run_job", "run_claimed_job"]

_log = logging.getLogger("repro.jobs")

#: Environment variable: warn when one claimed execution (a shard, a merge,
#: a whole mine) runs longer than this many seconds.  Unset/invalid = off.
SLOW_SHARD_ENV = "REPRO_SLOW_SHARD_S"


def _slow_threshold() -> float | None:
    raw = os.environ.get(SLOW_SHARD_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class _Handled:
    """Sentinel: the runner applied its own terminal transition."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "HANDLED"


#: A runner returns this when it already moved the job to a terminal state
#: itself — the planner runner (``finish_planning`` leaves the parent in
#: its planned-running form) and the shard runner (``complete_shard``
#: persists output atomically with the success) do; ``run_claimed_job``
#: then applies no transition of its own.
HANDLED = _Handled()

#: ``runner(control) -> result_key | None | HANDLED`` — one job's work.
JobRunner = Callable[[MiningControl], "str | None"]

#: Environment variable naming the execution audit log (tests only).
EXEC_LOG_ENV = "REPRO_JOBS_EXEC_LOG"


def _log_execution(store, job: Job) -> None:
    path = os.environ.get(EXEC_LOG_ENV)
    if not path:
        return
    line = f"{job.job_id} {store.worker_id} attempt={job.attempt}\n"
    with open(path, "a") as handle:  # single short write: O_APPEND-atomic
        handle.write(line)


def run_job(store, job_id: str, runner: JobRunner, should_abort=None) -> None:
    """Claim and execute one job end to end, recording its lifecycle."""
    job = store.get(job_id)
    if job is None or job.state != QUEUED:
        # Cancelled (or otherwise finished) before this worker picked it up.
        return
    try:
        claimed = store.mark_running(job_id)
    except Exception:
        # Lost the race — an immediate cancel, or another process's claim,
        # landed between the check above and the transition.
        return
    run_claimed_job(store, claimed, runner, should_abort=should_abort)


def run_claimed_job(store, job: Job, runner: JobRunner, should_abort=None) -> None:
    """Execute a job this worker already claimed (holds the lease on).

    Every store write carries the claim's ``attempt``, so if the lease
    lapses mid-run and the job is re-claimed — even by this same process —
    this thread's late ticks and terminal transition are refused rather
    than applied to the newer attempt.

    ``should_abort`` is *this process's* stop signal (graceful shutdown),
    distinct from the job's cancellation flag: when it trips, the runner
    aborts at the next checkpoint and the claim is **released** — CAS'd
    back to queued for immediate takeover by a surviving process — rather
    than cancelled.

    Every execution opens a trace span *before* the work starts so a
    ``kill -9`` mid-run leaves the open span behind as evidence; whoever
    reclaims the lease marks it ``interrupted``.  The span closes through
    a CAS, so this thread finishing late cannot overwrite a reclaimer's
    verdict.
    """
    _log_execution(store, job)
    job_id, attempt, trace_id = job.job_id, job.attempt, job.trace_id
    # A claimed distributed parent is always the planning step — once
    # planned it stays running lease-less and is never claimed again.
    sid = store.spans.begin(
        job_id=job_id,
        attempt=attempt,
        worker_id=store.worker_id,
        name="planner" if job.kind == KIND_MINE and job.distributed else job.kind,
        kind=job.kind,
        trace_id=trace_id,
        parent_job_id=job.parent_id,
        shard_index=job.shard_index,
    )

    def _close_span(status: str, error: str | None = None) -> None:
        store.spans.finish(sid, status, error=error)

    def _should_cancel() -> bool:
        if should_abort is not None and should_abort():
            return True
        return store.cancel_requested(job_id)

    control = MiningControl(
        progress=lambda done, total: store.set_progress(
            job_id, done, total, attempt=attempt
        ),
        should_cancel=_should_cancel,
    )
    started = time.monotonic()
    with log_context(trace_id=trace_id, job_id=job_id):
        try:
            result_key = runner(control)
        except MiningCancelled:
            if should_abort is not None and should_abort():
                # release() marks still-open spans "released" itself.
                store.release(job_id, attempt)
            else:
                _close_span("cancelled")
                _finish(store.mark_cancelled, job_id, attempt=attempt)
        except BaseException as exc:  # noqa: BLE001 - capture, never kill the worker
            _log.warning(
                "job %s attempt %d failed: %s", job_id, attempt, exc
            )
            _close_span("error", error=f"{type(exc).__name__}: {exc}")
            _finish(store.mark_failed, job_id, exc, attempt=attempt)
        else:
            _close_span("ok")
            if result_key is not HANDLED:
                _finish(
                    store.mark_succeeded,
                    job_id,
                    result_key=result_key,
                    attempt=attempt,
                )
        elapsed = time.monotonic() - started
        threshold = _slow_threshold()
        if threshold is not None and elapsed > threshold:
            _log.warning(
                "slow %s job %s: attempt %d took %.3fs (threshold %.3fs)",
                job.kind,
                job_id,
                attempt,
                elapsed,
                threshold,
            )


def _finish(transition, job_id: str, *args, **kwargs) -> None:
    """Apply a terminal transition, tolerating a lost lease.

    If this worker's lease lapsed mid-run and the job was reclaimed (and
    possibly finished) by another process, the durable store refuses the
    transition with :class:`JobStateError` — the newer attempt's outcome
    stands, and this thread just stops.
    """
    try:
        transition(job_id, *args, **kwargs)
    except JobStateError:
        pass


class JobExecutor:
    """A fixed-width pool of job-driver threads."""

    def __init__(self, width: int = 2) -> None:
        if width < 1:
            raise ValueError(f"executor width must be >= 1, got {width}")
        self.width = width
        self._pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="mining-job"
        )

    def submit(
        self, store, job_id: str, runner: JobRunner, should_abort=None
    ) -> Future:
        """Queue one job for execution; returns the underlying future."""
        return self._pool.submit(run_job, store, job_id, runner, should_abort)

    def shutdown(self, wait: bool = False) -> None:
        """Stop accepting work; pending queued futures are dropped."""
        self._pool.shutdown(wait=wait, cancel_futures=True)
