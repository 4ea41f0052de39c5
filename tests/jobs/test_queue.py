"""JobQueue + claim-loop behaviour: real threads, cooperative cancellation.

Each test registers a runner per cache key; the queue's runner factory
looks the claimed job's key up, the way a server rebuilds a runner from
the stored job document.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.parallel import MiningCancelled, MiningControl
from repro.jobs import (
    CANCELLED,
    FAILED,
    SUCCEEDED,
    TERMINAL_STATES,
    DurableJobStore,
    JobQueue,
)
from repro.store.database import Database

KEY = "f" * 64
PARAMS = {"min_support": 5}
TIMEOUT = 10.0


def wait_until(predicate, timeout: float = TIMEOUT) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def wait_terminal(queue: JobQueue, job_id: str):
    wait_until(lambda: queue.store.get(job_id).state in TERMINAL_STATES)
    return queue.store.get(job_id)


class Queue(JobQueue):
    """A one-thread queue whose submissions carry their runner."""

    def __init__(self, **kwargs):
        self.runners = {}
        super().__init__(
            DurableJobStore(Database()),
            lambda job: self.runners[job.key],
            width=1,
            **kwargs,
        )

    def submit(self, dataset, parameters, key, runner):
        self.runners[key] = runner
        return super().submit(dataset, parameters, key)


@pytest.fixture
def queue():
    q = Queue()
    yield q
    q.shutdown(wait=True)


class TestExecution:
    def test_successful_run(self, queue):
        def runner(control: MiningControl) -> str:
            control.report(1, 2)
            control.report(2, 2)
            return KEY

        job, created = queue.submit("santander", PARAMS, KEY, runner)
        assert created
        final = wait_terminal(queue, job.job_id)
        assert final.state == SUCCEEDED
        assert final.progress == 1.0
        assert final.result_key == KEY

    def test_failure_captured(self, queue):
        def runner(control: MiningControl) -> str:
            raise RuntimeError("shard exploded")

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        final = wait_terminal(queue, job.job_id)
        assert final.state == FAILED
        assert final.error.type == "RuntimeError"
        assert final.error.message == "shard exploded"
        assert "shard exploded" in final.error.traceback

    def test_progress_flows_from_control(self, queue):
        gate = threading.Event()

        def runner(control: MiningControl) -> str:
            control.report(1, 4)
            gate.wait(TIMEOUT)
            return KEY

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        wait_until(lambda: queue.store.get(job.job_id).progress > 0)
        snapshot = queue.store.get(job.job_id)
        assert snapshot.progress == pytest.approx(0.25)
        assert (snapshot.shards_done, snapshot.shards_total) == (1, 4)
        gate.set()
        assert wait_terminal(queue, job.job_id).progress == 1.0

    def test_dedup_returns_inflight_job(self, queue):
        gate = threading.Event()
        runs = []

        def runner(control: MiningControl) -> str:
            runs.append(1)
            gate.wait(TIMEOUT)
            return KEY

        first, created1 = queue.submit("santander", PARAMS, KEY, runner)
        second, created2 = queue.submit("santander", PARAMS, KEY, runner)
        assert created1 and not created2
        assert first.job_id == second.job_id
        gate.set()
        wait_terminal(queue, first.job_id)
        assert sum(runs) == 1  # the second runner never scheduled

    def test_resubmit_after_success_is_a_new_job(self, queue):
        job1, _ = queue.submit("santander", PARAMS, KEY, lambda control: KEY)
        wait_terminal(queue, job1.job_id)
        job2, created = queue.submit("santander", PARAMS, KEY, lambda control: KEY)
        assert created and job2.job_id != job1.job_id
        wait_terminal(queue, job2.job_id)


class TestCancellation:
    def test_cancel_running_job_at_checkpoint(self, queue):
        started = threading.Event()

        def runner(control: MiningControl) -> str:
            started.set()
            for _ in range(1000):
                control.checkpoint()  # the engine's between-shards poll
                time.sleep(0.01)
            return KEY

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        assert started.wait(TIMEOUT)
        queue.store.request_cancel(job.job_id)
        final = wait_terminal(queue, job.job_id)
        assert final.state == CANCELLED
        assert final.progress < 1.0
        assert final.error is None

    def test_cancel_queued_job_never_runs(self, queue):
        gate = threading.Event()
        ran = []

        def blocker(control: MiningControl) -> str:
            gate.wait(TIMEOUT)
            return "g" * 64

        def victim(control: MiningControl) -> str:
            ran.append(1)
            return KEY

        # width=1: the blocker occupies the only worker, the victim queues.
        blocking, _ = queue.submit("santander", PARAMS, "g" * 64, blocker)
        queued, _ = queue.submit("santander", PARAMS, KEY, victim)
        cancelled = queue.store.request_cancel(queued.job_id)
        assert cancelled.state == CANCELLED
        gate.set()
        wait_terminal(queue, blocking.job_id)
        queue.shutdown(wait=True)
        assert not ran  # the worker saw the terminal state and skipped it

    def test_cancel_unknown_job(self, queue):
        with pytest.raises(KeyError):
            queue.store.request_cancel("job-0042-missing")

    def test_mining_cancelled_maps_to_cancelled_state(self, queue):
        def runner(control: MiningControl) -> str:
            raise MiningCancelled("stop")

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        assert wait_terminal(queue, job.job_id).state == CANCELLED


class TestShutdown:
    def test_shutdown_cancels_running_jobs(self):
        """Ctrl-C must not wait out an in-flight mine: shutdown requests
        cancellation, the runner aborts at its next checkpoint."""
        queue = Queue()
        started = threading.Event()

        def runner(control: MiningControl) -> str:
            started.set()
            for _ in range(10_000):
                control.checkpoint()
                time.sleep(0.005)
            return KEY

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        assert started.wait(TIMEOUT)
        begun = time.monotonic()
        queue.shutdown(wait=True)
        assert time.monotonic() - begun < TIMEOUT / 2  # not the full 50 s loop
        assert queue.store.get(job.job_id).state == CANCELLED


class TestClaimLoop:
    def test_factory_failure_fails_the_job(self):
        def factory(job):
            raise LookupError("dataset is gone")

        queue = JobQueue(DurableJobStore(Database()), factory, width=1)
        try:
            job, _ = queue.submit("santander", PARAMS, KEY)
            final = wait_terminal(queue, job.job_id)
            assert final.state == FAILED
            assert final.error.type == "LookupError"
        finally:
            queue.shutdown(wait=True)

    def test_job_written_straight_to_the_store_runs_on_the_beat(self):
        """A job another process enqueued wakes nobody here: the poll beat
        finds it."""
        queue = Queue(poll_seconds=0.05)
        try:
            queue.runners[KEY] = lambda control: KEY
            job, _ = queue.store.open_job("santander", PARAMS, KEY)
            assert wait_terminal(queue, job.job_id).state == SUCCEEDED
        finally:
            queue.shutdown(wait=True)

    def test_concurrent_submitters_run_each_job_exactly_once(self):
        """More loops than cores, several submitters, a tiny switch
        interval: every job runs once, and no wake-up is lost (a lost one
        would leave a job queued for the whole 30 s beat)."""
        runs = []
        queue = JobQueue(
            DurableJobStore(Database()),
            lambda job: lambda control: runs.append(job.key) or job.key,
            width=4,
            poll_seconds=30.0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submit_many(offset: int) -> None:
                for index in range(offset, offset + 25):
                    queue.submit("santander", PARAMS, f"{index:064d}")

            submitters = [
                threading.Thread(target=submit_many, args=(25 * n,)) for n in range(4)
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(TIMEOUT)
                assert not thread.is_alive()
            wait_until(
                lambda: all(j.state == SUCCEEDED for j in queue.store.list())
                and len(queue.store.list()) == 100
            )
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown(wait=True)
        assert sorted(runs) == sorted(f"{index:064d}" for index in range(100))

    @pytest.mark.parametrize("poll", [0.0, -1.0, float("nan"), float("inf")])
    def test_poll_interval_must_be_positive(self, poll):
        with pytest.raises(ValueError, match="poll interval"):
            JobQueue(DurableJobStore(Database()), lambda job: None, poll_seconds=poll)


class TestCounters:
    def test_counters_include_executor_width(self, queue):
        queue.submit("santander", PARAMS, KEY, lambda control: KEY)
        counts = queue.counters()
        assert counts["executor_width"] == 1
        assert counts["total"] == 1
