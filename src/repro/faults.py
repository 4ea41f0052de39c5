"""Deterministic crash points and the job runners' other test-only hooks.

An environment variable names one crash point as ``point[@scope][:nth]``;
the process hard-exits (``os._exit``) at the nth hit of that point whose
scope matches, exactly like ``kill -9`` landing there.  The store
(``REPRO_STORE_FAULT``, scoped by the collections a commit carries, exit
71) and stream retention (``REPRO_STREAM_FAULT``, scoped by dataset, exit
72) each own one :class:`CrashPoints`; the job registry's
(``REPRO_JOBS_FAULT``, unscoped, exit 70) is :data:`JOB_FAULTS`, shared by
the registry and the job kinds' runners, which also :func:`hold` a claimed
job mid-flight for a harness to ``kill -9`` and :func:`log_execution`.
Unset, every hook is a no-op.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterable

__all__ = [
    "EXEC_LOG_ENV",
    "JOB_FAULTS",
    "JOB_FAULT_POINTS",
    "MINE_DELAY_ENV",
    "SHARD_DELAY_ENV",
    "CrashPoints",
    "hold",
    "log_execution",
]


class CrashPoints:
    """The crash points one environment variable can arm."""

    def __init__(self, env: str, exit_code: int) -> None:
        self.env = env
        self.exit_code = exit_code
        self._hits: dict[str, int] = {}

    def _spec(self) -> tuple[str, str | None, int] | None:
        """Parse the variable into (point, scope, nth)."""
        raw = os.environ.get(self.env)
        if not raw:
            return None
        point, _, nth_part = raw.partition(":")
        point, _, scope = point.partition("@")
        try:
            nth = int(nth_part) if nth_part else 1
        except ValueError:
            nth = 1
        return point, (scope or None), nth

    def armed(
        self, point: str, scope: str | Iterable[str] | None = None
    ) -> bool:
        """True when this call is the configured crash occurrence.

        ``scope`` is one name or several (a store commit carries records
        of several collections); a scoped spec matches a hit whose scopes
        include it.  Counts matching hits so ``:<nth>`` specs can skip
        past setup writes (index creation on a fresh store commits too).
        """
        spec = self._spec()
        if spec is None:
            return False
        want_point, want_scope, nth = spec
        if want_point != point:
            return False
        if want_scope is not None and scope is not None:
            if want_scope not in ((scope,) if isinstance(scope, str) else scope):
                return False
        key = f"{want_point}@{want_scope or '*'}"
        self._hits[key] = self._hits.get(key, 0) + 1
        return self._hits[key] == nth

    def maybe_fault(
        self, point: str, scope: str | Iterable[str] | None = None
    ) -> None:
        """Hard-exit at an armed crash point — a ``kill -9`` landing here."""
        if self.armed(point, scope):
            os._exit(self.exit_code)


#: The job registry's crash points, in lifecycle order.
JOB_FAULT_POINTS = (
    "after-enqueue",           # queued job persisted; submitter never answered
    "after-claim",             # running + lease persisted; worker dies pre-mine
    "after-shard-claim",       # shard sub-job claimed; worker dies pre-execution
    "mid-shard",               # shard computed; success/output never hit disk
    "before-merge-publish",    # all shards done; merge dies pre-result-publish
    "before-succeed-persist",  # mine finished; success/result never hit disk
    "after-succeed-persist",   # success + result durable; process dies after
)

#: ``REPRO_JOBS_FAULT`` arms one of :data:`JOB_FAULT_POINTS`; a hit exits
#: with status 70 (distinct from SIGKILL's 137), no cleanup, no flushing —
#: any flock dies with the process.
JOB_FAULTS = CrashPoints("REPRO_JOBS_FAULT", 70)

#: Seconds the whole-mine runner holds before the engine starts.
MINE_DELAY_ENV = "REPRO_JOBS_MINE_DELAY"

#: Seconds the shard runner holds before executing its units.
SHARD_DELAY_ENV = "REPRO_JOBS_SHARD_DELAY"

#: A file every job execution appends ``job_id worker attempt=N`` to.
EXEC_LOG_ENV = "REPRO_JOBS_EXEC_LOG"


def hold(env: str, control: Any) -> None:
    """Sleep for the seconds ``env`` names, honouring cancellation."""
    delay = float(os.environ.get(env, 0) or 0)
    deadline = time.monotonic() + delay
    while time.monotonic() < deadline:
        control.checkpoint()
        time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))


def log_execution(worker_id: str, job: Any) -> None:
    """The exactly-once audit: one ``O_APPEND``-atomic line per execution."""
    path = os.environ.get(EXEC_LOG_ENV)
    if not path:
        return
    line = f"{job.job_id} {worker_id} attempt={job.attempt}\n"
    with open(path, "a") as handle:  # single short write: O_APPEND-atomic
        handle.write(line)
