"""Asynchronous mining jobs: queue, store, claim loop, lifecycle model.

The serving tier's answer to long mines (ROADMAP's "async server offload"):
``POST /api/v1/datasets/{name}/results`` with ``mode=async`` opens a
:class:`Job` here, a claim-loop thread drives the parallel engine, and the
interactive endpoints keep answering while it runs.  One registry serves
every database (:class:`DurableJobStore`): jobs live as documents in the
``jobs`` collection.  One execution path serves every job: a
:class:`ClaimLoop` thread claims it from the registry and builds its
runner from the stored document, so mines, distributed sub-jobs and
resident stream jobs run the same whether this process or another one
enqueued them.  With a store bound to a path jobs survive restarts and
several processes share one registry through lease-based claiming; a
path-less database keeps the same registry in memory.  See ``DESIGN.md``
("Async job queue", "Durable jobs") for the state machine, lease
protocol, and recovery rules.
"""

from .durable import DurableJobStore, maybe_fault
from .executor import HANDLED, ClaimLoop, run_job
from .model import (
    ATTEMPTS_EXHAUSTED,
    CANCELLED,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    KIND_MERGE,
    KIND_MINE,
    KIND_SHARD,
    KIND_STREAM,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobError,
    JobStateError,
)
from .planner import (
    PLAN_WORKERS_DEFAULT,
    MinePlan,
    execute_units,
    merge_outputs,
    plan_mine,
)
from .queue import JobQueue

__all__ = [
    "ATTEMPTS_EXHAUSTED",
    "CANCELLED",
    "FAILED",
    "HANDLED",
    "JOB_KINDS",
    "JOB_STATES",
    "KIND_MERGE",
    "KIND_MINE",
    "KIND_SHARD",
    "KIND_STREAM",
    "PLAN_WORKERS_DEFAULT",
    "SUCCEEDED",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "ClaimLoop",
    "DurableJobStore",
    "Job",
    "JobError",
    "JobQueue",
    "JobStateError",
    "MinePlan",
    "execute_units",
    "maybe_fault",
    "merge_outputs",
    "plan_mine",
    "run_job",
]
