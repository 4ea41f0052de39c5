"""The job execution loop: claim from the registry, build, run.

There is one way a job runs.  :class:`ClaimLoop` keeps ``width`` daemon
threads, each repeating ``claim_next()`` → ``runner_factory(job)`` →
:func:`run_job` against a :class:`~repro.jobs.durable.DurableJobStore`.
Claims are compare-and-set, so any number of loops — in this process or
in others sharing the store — execute each job exactly once, and the
runner is always rebuilt from the stored job document, so a job runs the
same wherever it was enqueued.

Each loop thread owns one worker process (:class:`~repro.jobs.mine_process
.MineProcess`), started on the thread's first whole mine and stopped when
its loop ends (:meth:`ClaimLoop.shutdown`).  A whole mine's CPU body runs
there, so two loop threads mine on two cores instead of taking turns at
one GIL, and request handling no longer waits behind them; the thread
keeps everything that touches the store (the claim, progress and lease
renewal, cancellation polls, the crash points, the result write).
Everything else a loop claims (shards, merges, planning, stream epochs)
runs in the thread itself.

An idle loop sleeps until :meth:`ClaimLoop.wake` (a local submission,
which returns once an idle loop has looked, so the job is already claimed
when the submitter answers) or its ``poll_seconds`` beat, whichever comes
first; the beat picks up jobs other processes enqueued, resting stream
jobs and backed-off requeues whose gate opened.  Once
per beat per process, :meth:`DurableJobStore.reclaim_expired` requeues
jobs whose worker died and resolves distributed parents from their
sub-jobs.

:func:`run_job` is the tail around one claimed execution: it wires a
:class:`JobControl` to the store (progress ticks in, cancellation polls
out) and to the loop thread's worker process, and maps the outcome onto
the state machine —
return value → ``succeeded``, :class:`MiningCancelled` → ``cancelled``,
any other exception → ``failed`` with structured capture.  The loop calls
it through this module's global, so instrumentation that rebinds
``repro.jobs.executor.run_job`` sees every execution.

When ``REPRO_JOBS_EXEC_LOG`` names a file, every execution appends one
``job_id worker attempt=N`` line to it (:func:`repro.faults.log_execution`).
The fault-injection harness uses this to assert exactly-once execution
across processes; in production the variable is unset and nothing is
written.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..core.parallel import MiningCancelled, MiningControl
from ..faults import log_execution
from ..obs.logging import log_context
from .mine_process import MineProcess
from .model import Job, JobStateError

__all__ = [
    "HANDLED",
    "ClaimLoop",
    "JobControl",
    "JobRunner",
    "RunnerFactory",
    "run_job",
]

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
#: persists output atomically with the success) do; ``run_job`` then
#: applies no transition of its own.
HANDLED = _Handled()


@dataclass
class JobControl(MiningControl):
    """A claimed job's :class:`MiningControl`, plus the worker process its
    loop thread mines whole mines in (``worker.mine(dataset, params,
    control)``)."""

    worker: MineProcess | None = None


#: ``runner(control) -> result_key | None | HANDLED`` — one job's work.
JobRunner = Callable[[JobControl], "str | None"]

#: Builds the executable work for a claimed job from its stored document.
#: The server's (``ServerState.runner_for_job``) looks the job's kind up
#: and calls that kind's builder: :mod:`repro.jobs.distributed` for
#: ``mine``, ``shard`` and ``merge``, :mod:`repro.stream.runner` for
#: ``stream``.
RunnerFactory = Callable[[Job], JobRunner]


def run_job(
    store,
    job: Job,
    runner: JobRunner,
    should_abort=None,
    worker: MineProcess | None = None,
) -> None:
    """Execute a job this worker claimed (holds the lease on).

    Every store write carries the claim's ``attempt``, so if the lease
    lapses mid-run and the job is re-claimed — even by this same process —
    this thread's late ticks and terminal transition are refused rather
    than applied to the newer attempt.

    ``should_abort`` is *this process's* stop signal (graceful shutdown),
    distinct from the job's cancellation flag: when it trips, the runner
    aborts at the next checkpoint and the claim is **released** — CAS'd
    back to queued for immediate takeover by a surviving process — rather
    than cancelled.

    ``worker`` is the loop thread's :class:`MineProcess`, handed to the
    runner on its control.

    The claim opened this attempt's trace span; the transition that ends
    the claim closes it in the same update (see
    :meth:`DurableJobStore._close_span`), so this thread finishing late
    cannot overwrite a reclaimer's ``interrupted`` verdict.
    """
    log_execution(store.worker_id, job)
    job_id, attempt, trace_id = job.job_id, job.attempt, job.trace_id

    def _should_cancel() -> bool:
        if should_abort is not None and should_abort():
            return True
        return store.cancel_requested(job_id)

    control = JobControl(
        progress=lambda done, total: store.set_progress(
            job_id, done, total, attempt=attempt
        ),
        should_cancel=_should_cancel,
        worker=worker,
    )
    started = time.monotonic()
    with log_context(trace_id=trace_id, job_id=job_id):
        try:
            result_key = runner(control)
        except MiningCancelled:
            if should_abort is not None and should_abort():
                store.release(job_id, attempt)
            else:
                _finish(store.mark_cancelled, job_id, attempt=attempt)
        except BaseException as exc:  # noqa: BLE001 - capture, never kill the worker
            _log.warning(
                "job %s attempt %d failed: %s", job_id, attempt, exc
            )
            _finish(store.mark_failed, job_id, exc, attempt=attempt)
        else:
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


class ClaimLoop:
    """``width`` daemon threads claiming and running jobs from one registry."""

    def __init__(
        self,
        store,
        runner_factory: RunnerFactory,
        width: int = 2,
        poll_seconds: float = 1.0,
    ) -> None:
        if width < 1:
            raise ValueError(f"loop width must be >= 1, got {width}")
        if not 0 < poll_seconds <= threading.TIMEOUT_MAX:
            raise ValueError(f"poll interval must be > 0, got {poll_seconds}")
        self.store = store
        self.runner_factory = runner_factory
        self.width = width
        self.poll_seconds = float(poll_seconds)
        self._stopping = threading.Event()
        # One lock guards the counters below; idle loops wait on ``_work``,
        # a waking submitter on ``_looked``.  A loop snapshots ``_wakes``
        # before it claims and sleeps only if nobody woke it since, so no
        # wake is lost; ``_answered`` is the newest snapshot a finished
        # claim attempt covered.
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._looked = threading.Condition(self._lock)
        self._wakes = 0
        self._answered = 0
        self._idle = 0
        self._next_reclaim = 0.0
        #: ``(job_id, attempt)`` of every claim being executed right now.
        self._claims: set[tuple[str, int]] = set()
        #: One whole-mine worker process per loop thread, started lazily.
        self.workers = [
            MineProcess(name=f"job-mine-{store.worker_id}-{index}")
            for index in range(width)
        ]
        self._threads = [
            threading.Thread(
                target=self._run,
                args=(worker,),
                name=f"job-loop-{store.worker_id}-{index}",
                daemon=True,
            )
            for index, worker in enumerate(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def wake(self) -> None:
        """Have an idle loop look for work now instead of at its next beat.

        If a loop is idle, returns once it has looked (at most one beat
        later), so a job just written here is already claimed when the
        submitter answers; with every loop busy it returns at once and the
        job waits for the first loop to finish.
        """
        with self._lock:
            self._wakes += 1
            wake = self._wakes
            if not self._idle:
                return
            self._work.notify()
            self._looked.wait_for(
                lambda: self._answered >= wake or self._stopping.is_set(),
                timeout=self.poll_seconds,
            )

    def shutdown(self, wait: bool = False) -> None:
        """Stop claiming; ``wait=True`` joins the loop threads.

        Each thread stops its worker process as its loop ends, so after
        ``wait=True`` no worker is left running.

        On a shared registry the claims being executed are *released*
        immediately (CAS back to queued), so a surviving process takes
        them over now instead of waiting out the lease; the runners abort
        at their next checkpoint, and their own late release CAS-fails
        silently.
        """
        with self._lock:
            self._stopping.set()
            self._work.notify_all()
            self._looked.notify_all()
            claims = list(self._claims)
        if self.store.shared:
            for claim in claims:
                try:
                    self.store.release(*claim)
                except Exception:
                    pass  # shutdown must not die on a store hiccup
        if wait:
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join()

    def _run(self, worker: MineProcess) -> None:
        try:
            self._loop(worker)
        finally:
            worker.stop()

    def _loop(self, worker: MineProcess) -> None:
        while not self._stopping.is_set():
            with self._lock:
                seen = self._wakes
            job = self._claim()
            with self._lock:
                self._answered = max(self._answered, seen)
                self._looked.notify_all()
                if job is None:
                    if self._wakes == seen and not self._stopping.is_set():
                        self._idle += 1
                        self._work.wait(self.poll_seconds)
                        self._idle -= 1
                    continue
                claim = (job.job_id, job.attempt)
                self._claims.add(claim)
            try:
                self._execute(job, worker)
            except Exception:  # a store error mid-run must not kill the loop
                _log.exception("claim loop: job %s attempt %d", *claim)
            finally:
                with self._lock:
                    self._claims.discard(claim)

    def _claim(self) -> Job | None:
        """Reclaim lapsed leases if a beat passed, then claim the oldest
        claimable job; ``None`` when there is none (or the store failed —
        never die: a transient error, e.g. a log swapped by a peer's
        compaction mid-read, retries on the next beat)."""
        now = time.monotonic()
        with self._lock:
            reclaim = now >= self._next_reclaim
            if reclaim:
                self._next_reclaim = now + self.poll_seconds
        try:
            if reclaim:
                self.store.reclaim_expired()
            if self._stopping.is_set():
                return None
            return self.store.claim_next()
        except Exception:
            _log.warning("claim loop: store error; retrying", exc_info=True)
            return None

    def _execute(self, job: Job, worker: MineProcess) -> None:
        try:
            runner = self.runner_factory(job)
        except Exception as exc:  # the job must not stay leased
            _finish(self.store.mark_failed, job.job_id, exc, attempt=job.attempt)
            return
        run_job(
            self.store, job, runner, should_abort=self._stopping.is_set, worker=worker
        )
