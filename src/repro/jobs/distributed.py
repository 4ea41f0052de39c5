"""The ``mine`` kind: a whole mine, or a distributed one split into sub-jobs.

A ``mine`` job submitted with ``distributed=True`` is a *parent*.  Its
claimed execution is the planner, which splits it into ``shard``
sub-jobs plus one ``merge`` sub-job (:func:`finish_planning`): documents
in the same ``jobs`` collection, moving through the registry's state
machine under their own leases.  Every rule of that protocol lives here,
as functions over a :class:`~repro.jobs.durable.DurableJobStore` that run
inside its critical section.  The registry calls them where its shared
lifecycle meets them:

* the claim gate (:func:`ready`): a shard needs a planned, live parent;
  the merge also needs every shard ``succeeded``;
* the claim crash point (:func:`claim_point`);
* the resolution pass (:func:`resolve_parents`): a planned parent is
  lease-less and is completed, failed or cancelled *by rules over its
  children*, so a crashing worker loses one shard, not the mine;
* retention (:func:`prune`) and redrive (:func:`restore_lineage`).

A shard persists its tagged CAP output atomically with its success
(:func:`complete_shard`), spilled into the ``shard_outputs`` collection.

The runners (:func:`mine_runner`, :func:`shard_runner`,
:func:`merge_runner`) build a claimed job's work against the server
state: its dataset, its result cache.  The pure half of planning and
merging is :mod:`repro.jobs.planner`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Mapping

from ..core.miner import MiningResult
from ..core.parallel import MiningCancelled
from ..core.parameters import MiningParameters
from ..faults import JOB_FAULTS, MINE_DELAY_ENV, SHARD_DELAY_ENV, hold
from ..obs.profiler import Profiler
from .executor import HANDLED
from .model import (
    CANCELLED,
    FAILED,
    KIND_MERGE,
    KIND_SHARD,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobError,
    JobStateError,
    ensure_transition,
)
from .planner import PLAN_WORKERS_DEFAULT, execute_units, merge_outputs, plan_mine

__all__ = [
    "complete_shard",
    "finish_planning",
    "merge_runner",
    "mine_runner",
    "plan_workers",
    "shard_outputs",
    "shard_runner",
    "shard_spec",
]

_SHARD_OUTPUTS = "shard_outputs"


# -- the registry's calls (inside DurableJobStore._exclusive) -----------------


def ready(store, document: Mapping[str, Any]) -> bool:
    """Whether a queued job may be claimed: top-level jobs always; a shard
    once its parent is planned and live; the merge once every shard has
    succeeded too."""
    kind = document.get("kind")
    if kind not in (KIND_SHARD, KIND_MERGE):
        return True
    parent = store._doc(document.get("parent_id") or "")
    if (
        parent is None
        or parent["state"] != RUNNING
        or not parent.get("planned")
        or parent.get("cancel_requested")
    ):
        return False
    if kind == KIND_SHARD:
        return True
    for shard_id in parent.get("shard_ids", []):
        shard = store._doc(shard_id)
        if shard is None or shard["state"] != SUCCEEDED:
            return False
    return True


def claim_point(document: Mapping[str, Any]) -> str:
    """The crash point a claim fires: shards have their own."""
    shard = document.get("kind") == KIND_SHARD
    return "after-shard-claim" if shard else "after-claim"


def resolve_parents(store, now: float) -> None:
    """Drive planned parents from their children's states.

    A planned parent is lease-less: its lifecycle is a pure function of
    its sub-jobs, applied here by whichever process runs reclamation,
    cancellation or recovery first —

    * any child ``failed`` → parent ``failed`` with a diagnosis naming
      the shard, and the remaining children are cancelled;
    * cancellation (requested on the parent, or a child ended
      ``cancelled``) propagates and completes once children stop;
    * the merge ``succeeded`` → parent ``succeeded``, publishing the
      merge's result key;
    * otherwise the parent's progress tracks its shard completions.
    """
    jobs = store._collection()
    parents = [doc for doc in jobs.find({"state": RUNNING}) if doc.get("planned")]
    for parent in parents:
        settle = partial(
            jobs.update_if, {"job_id": parent["job_id"]}, {"state": RUNNING}
        )
        children = jobs.find({"parent_id": parent["job_id"]}, sort="sequence")
        shards = [c for c in children if c.get("kind") == KIND_SHARD]
        merge = next((c for c in children if c.get("kind") == KIND_MERGE), None)
        failed = next((c for c in children if c["state"] == FAILED), None)
        if failed is not None:
            error = failed.get("error") or {}
            if failed.get("kind") == KIND_SHARD:
                where = (
                    f"shard {failed.get('shard_index')}/"
                    f"{len(shards)} ({failed['job_id']})"
                )
            else:
                where = f"merge step ({failed['job_id']})"
            diagnosis = JobError(
                type=str(error.get("type", "ShardFailed")),
                message=(
                    f"{where} failed after "
                    f"{int(failed.get('attempt', 0))} attempt(s) "
                    f"[{error.get('type', 'unknown')}]: "
                    f"{error.get('message', 'no message recorded')}"
                ),
            )
            settle(
                {"state": FAILED, "finished_at": now, "error": diagnosis.to_document()}
            )
            _cancel_children(store, children, now)
            continue
        cancelling = parent.get("cancel_requested") or any(
            c["state"] == CANCELLED for c in children
        )
        if cancelling:
            _cancel_children(store, children, now)
            if all(c["state"] in TERMINAL_STATES for c in children):
                settle({"state": CANCELLED, "finished_at": now})
            continue
        if merge is not None and merge["state"] == SUCCEEDED:
            settle(
                {
                    "state": SUCCEEDED,
                    "finished_at": now,
                    "progress": 1.0,
                    "shards_done": len(shards),
                    "shards_total": len(shards),
                    "result_key": merge.get("result_key") or parent["key"],
                }
            )
            continue
        done = sum(1 for c in shards if c["state"] == SUCCEEDED)
        fraction = min(done / len(shards), 0.99) if shards else 0.0
        if (
            fraction > parent.get("progress", 0.0)
            or done != parent.get("shards_done", 0)
        ):
            settle(
                {
                    "progress": max(fraction, parent.get("progress", 0.0)),
                    "shards_done": done,
                    "shards_total": len(shards),
                }
            )


def _cancel_children(store, children: list[Mapping[str, Any]], now: float) -> None:
    """Stop a failing/cancelling parent's remaining children.

    Queued children cancel immediately; running ones get the cooperative
    flag (their worker aborts at the next checkpoint, or lease reclamation
    finishes the cancellation for a dead one).
    """
    jobs = store._collection()
    for child in children:
        if child["state"] == QUEUED:
            jobs.update_if(
                {"job_id": child["job_id"]},
                {"state": QUEUED},
                {"state": CANCELLED, "cancel_requested": True, "finished_at": now},
            )
        elif child["state"] == RUNNING and not child.get("cancel_requested"):
            jobs.update_one({"job_id": child["job_id"]}, {"cancel_requested": True})


def prune(store, job_id: str) -> None:
    """Retention: a pruned parent's sub-jobs and spilled outputs go with it."""
    store.database.collection(_SHARD_OUTPUTS).delete_many({"parent_id": job_id})
    store._collection().delete_many({"parent_id": job_id})


def restore_lineage(
    store, document: Mapping[str, Any], fresh: Mapping[str, Any]
) -> None:
    """Redrive of a dead-lettered sub-job: the failed planned parent returns
    to its lease-less running form and cancelled siblings are requeued
    with ``fresh`` counters, so the distributed mine can finish."""
    parent_id = document.get("parent_id")
    if not parent_id:
        return
    jobs = store._collection()
    jobs.update_if(
        {"job_id": parent_id},
        {"state": FAILED},
        {
            "state": RUNNING,
            "worker_id": None,
            "lease_expires_at": None,
            "finished_at": None,
            "error": None,
            "cancel_requested": False,
        },
    )
    for sibling in jobs.find({"parent_id": parent_id, "state": CANCELLED}):
        jobs.update_if({"job_id": sibling["job_id"]}, {"state": CANCELLED}, dict(fresh))


# -- sub-job documents ----------------------------------------------------------


def plan_workers(store, job_id: str) -> int:
    """The planning width a distributed parent was submitted with."""
    with store._lock:
        store.refresh()
        document = store._require_doc(job_id)
        return int(document.get("plan_workers", PLAN_WORKERS_DEFAULT))


def finish_planning(
    store,
    job_id: str,
    attempt: int,
    *,
    shard_units: list[list[Mapping[str, Any]]],
    mode: str,
    horizon: int,
    generation: int = 0,
) -> Job:
    """Persist a distributed parent's plan: shard + merge sub-jobs.

    Runs under the planner's claim on the parent; the parent's transition
    to *planned* (running, lease-less, child-driven) is a CAS on
    ``{worker_id, attempt}``, so a planner that lost its lease mid-plan
    cannot clobber a newer planning attempt.  Sub-job ids are
    deterministic (``<parent>-s<index>``, ``<parent>-merge``) and insertion
    skips ids that already exist, which makes a re-run after a planner
    crash idempotent — the plan itself is a pure function of the stored
    submission (see :mod:`repro.jobs.planner`).

    ``generation`` is the *dataset* generation the planner observed; it is
    stamped on every sub-job so shard/merge runners can refuse to compute
    (or publish) against replaced data.

    Sub-jobs take consecutive ``sequence`` numbers, shards by index and the
    merge last, so the registry's listing of a parent's sub-jobs
    (``store.list(kind=None, parent_id=...)``) comes in that order.
    """
    with store._exclusive():
        parent = store._require_doc(job_id)
        if parent["state"] != RUNNING:
            raise JobStateError(
                f"cannot plan job {job_id} in state {parent['state']!r}"
            )
        now = store._clock()
        generation = int(generation)
        shard_ids = [f"{job_id}-s{index:03d}" for index in range(len(shard_units))]
        merge_id = f"{job_id}-merge"
        plan = {"mode": mode, "horizon": int(horizon), "generation": generation}
        sequence = store._next_sequence()
        sub_jobs = [
            (shard_id, KIND_SHARD, index, {"units": [dict(u) for u in units]})
            for index, (shard_id, units) in enumerate(zip(shard_ids, shard_units))
        ]
        sub_jobs.append((merge_id, KIND_MERGE, None, {}))
        for sub_id, kind, index, extra in sub_jobs:
            if store._doc(sub_id) is not None:
                continue
            child = Job(
                job_id=sub_id,
                dataset=parent["dataset"],
                parameters=dict(parent["parameters"]),
                key=parent["key"],
                created_at=now,
                kind=kind,
                parent_id=job_id,
                shard_index=index,
                max_attempts=parent.get("max_attempts"),
                trace_id=parent.get("trace_id"),
                sequence=sequence,
            )
            sequence += 1
            store._collection().insert_one(
                {**store._store_document(child), **extra, **plan}
            )
        matched = store._collection().update_if(
            {"job_id": job_id},
            {"state": RUNNING, "worker_id": store.worker_id, "attempt": int(attempt)},
            {
                "planned": True,
                "worker_id": None,
                "lease_expires_at": None,
                "shards_total": len(shard_units),
                "shards_done": 0,
                "shard_ids": shard_ids,
                "merge_id": merge_id,
                "generation": generation,
                "mode": mode,
                "horizon": int(horizon),
            },
        )
        if matched is None:
            raise JobStateError(
                f"job {job_id} is no longer owned by {store.worker_id!r} "
                f"(lease lost); refusing to finish planning"
            )
        return store._job(store._require_doc(job_id))


def shard_spec(store, job_id: str) -> dict[str, Any]:
    """A sub-job's execution inputs, as persisted by the planner."""
    with store._lock:
        store.refresh()
        document = store._require_doc(job_id)
        return {
            "units": document.get("units", []),
            "mode": document.get("mode"),
            "horizon": int(document.get("horizon", 0)),
            "generation": document.get("generation"),
            "parent_id": document.get("parent_id"),
        }


def complete_shard(
    store,
    job_id: str,
    attempt: int,
    output: list[Mapping[str, Any]],
    elapsed_seconds: float = 0.0,
    timings: Mapping[str, Any] | None = None,
) -> Job:
    """A shard's success — tagged CAP output lands *with* the transition.

    The output and the terminal state commit in one section, so a crash
    leaves either a queued/running shard (re-runnable) or a succeeded one
    with durable output — never a success without its caps (the
    ``mid-shard`` crash point fires just before this call).

    ``timings`` is the shard runner's profiler document (per-phase and
    per-unit wall times); persisted alongside ``elapsed_seconds`` it is the
    measured ground truth ``estimate_seed_cost`` calibration reads.
    """
    with store._exclusive():
        document = store._require_doc(job_id)
        ensure_transition(document["state"], SUCCEEDED)
        # The CAP documents spill into their own collection instead of
        # bloating the job registry (every registry refresh re-parses every
        # job document; shard outputs can dwarf the jobs).  A crash between
        # the spill and the success CAS leaves an orphan output document for
        # a still-runnable shard, which the re-run simply replaces.
        spilled = {
            "shard_id": job_id,
            "parent_id": document.get("parent_id"),
            "output": [dict(entry) for entry in output],
            "elapsed_seconds": float(elapsed_seconds),
        }
        outputs = store.database.collection(_SHARD_OUTPUTS)
        if outputs.replace_one({"shard_id": job_id}, spilled) is None:
            outputs.insert_one(spilled)
        changes: dict[str, Any] = {
            "progress": 1.0,
            "elapsed_seconds": float(elapsed_seconds),
        }
        if timings is not None:
            changes["timings"] = dict(timings)
        store._finish_locked(document, SUCCEEDED, changes, expected_attempt=attempt)
        return store._job(store._require_doc(job_id))


def shard_outputs(store, parent_id: str) -> list[dict[str, Any]]:
    """Every shard's tagged output (+ timings) once all have succeeded.

    Raises :class:`JobStateError` while any shard is unfinished — the merge
    step's claim gate should prevent that, but a merge runner racing a late
    reclamation must fail loudly, not merge a partial CAP list.
    """
    with store._lock:
        store.refresh()
        parent = store._require_doc(parent_id)
        spills = store.database.collection(_SHARD_OUTPUTS)
        outputs: list[dict[str, Any]] = []
        for shard_id in parent.get("shard_ids", []):
            shard = store._require_doc(shard_id)
            if shard["state"] != SUCCEEDED:
                raise JobStateError(
                    f"shard {shard_id} is {shard['state']!r}; the merge "
                    f"needs every shard succeeded"
                )
            spilled = spills.find_one({"shard_id": shard_id})
            if spilled is not None:
                output = spilled.get("output", [])
            # Pre-spill registries stored the output inline on the job
            # document; keep reading that form so old stores merge.
            elif "output" in shard:
                output = shard.get("output", [])
            else:
                raise JobStateError(
                    f"shard {shard_id} succeeded but its spilled output "
                    f"document is missing"
                )
            outputs.append(
                {
                    "shard_id": shard_id,
                    "output": output,
                    "elapsed_seconds": float(shard.get("elapsed_seconds", 0.0)),
                }
            )
        return outputs


# -- runners (``state`` is the server's ``ServerState``) ------------------------


def mine_runner(state, job: Job):
    """A claimed ``mine`` job: the planning step of an unplanned distributed
    parent, otherwise one whole mine of the dataset as of the claim, cached
    like a sync mine.

    A re-upload or delete of the dataset while the whole mine is in flight
    cancels the job, and the ``still_current`` check refuses its result
    should it finish first: the job ends ``cancelled``.
    """
    if job.distributed and not job.planned:
        return _planner(state, job)
    dataset, _, still_current = state.current_dataset(job.dataset)
    params = MiningParameters.from_document(job.parameters)

    def runner(control) -> str:
        hold(MINE_DELAY_ENV, control)
        state.cache.mine_cached(dataset, params, control=control, current=still_current)
        return job.key

    return runner


def _planner(state, job: Job):
    """The distributed parent's planning step (claimed like any job).

    Pure planning + one idempotent store write: re-running after a planner
    crash regenerates the identical plan (``plan_mine`` is deterministic in
    the stored submission), and :func:`finish_planning` skips sub-jobs that
    already exist.
    """

    def runner(control):
        store = state.jobs.store
        dataset, generation, _ = state.current_dataset(job.dataset)
        params = MiningParameters.from_document(job.parameters)
        plan = plan_mine(dataset, params, plan_workers(store, job.job_id))
        control.checkpoint()
        finish_planning(
            store,
            job.job_id,
            job.attempt,
            shard_units=plan.shard_documents,
            mode=plan.mode,
            horizon=plan.horizon,
            generation=generation,
        )
        return HANDLED

    runner.span_name = "planner"
    return runner


def shard_runner(state, job: Job):
    """One shard sub-job: execute its persisted units, persist output.

    The ``mid-shard`` crash point fires after the compute but before
    :func:`complete_shard` — work done but never recorded, the hardest
    takeover case (the shard re-runs elsewhere; the audit log proves only
    the lost shard does).
    """

    def runner(control):
        from ..server.http import HTTPError  # repro.server imports this module

        store = state.jobs.store
        spec = shard_spec(store, job.job_id)
        hold(SHARD_DELAY_ENV, control)
        # Saves mining replaced data; the merge's check is the guarantee.
        try:
            dataset, generation, _ = state.current_dataset(job.dataset)
        except HTTPError:  # deleted: a generation the plan never saw
            generation = None
        if generation != spec["generation"]:
            raise MiningCancelled(f"dataset {job.dataset!r} was replaced")
        params = MiningParameters.from_document(job.parameters)
        profiler = Profiler()
        control.profiler = profiler
        started = time.monotonic()
        output = execute_units(
            dataset, params, spec["units"], spec["mode"], spec["horizon"],
            control=control,
        )
        elapsed = time.monotonic() - started
        JOB_FAULTS.maybe_fault("mid-shard")
        # The measured wall time + phase breakdown land on the shard sub-job
        # document — the ground truth estimate_seed_cost calibration reads.
        complete_shard(
            store, job.job_id, job.attempt, output, elapsed,
            timings=profiler.to_document(),
        )
        return HANDLED

    return runner


def merge_runner(state, job: Job):
    """The merge sub-job: reassemble shard outputs, publish the result.

    Funnels through the same result-cache documents the sync path writes,
    so the published resource is byte-identical to a serial mine of the
    same (dataset, parameters).  Exactly-once across crashes: the cache
    probe makes a re-run after a post-publish crash a no-op, and the
    ``before-merge-publish`` crash point proves a pre-publish crash just
    re-merges from the durable shard outputs.
    """

    def runner(control):
        store = state.jobs.store
        spec = shard_spec(store, job.job_id)
        params = MiningParameters.from_document(job.parameters)
        if state.cache.get(job.dataset, params) is None:
            shard_results = shard_outputs(store, spec["parent_id"])
            outputs = [entry for shard in shard_results for entry in shard["output"]]
            control.checkpoint()
            result = MiningResult(
                dataset_name=job.dataset,
                parameters=params,
                caps=merge_outputs(spec["mode"], outputs),
                elapsed_seconds=sum(s["elapsed_seconds"] for s in shard_results),
            )
            JOB_FAULTS.maybe_fault("before-merge-publish")
            state.cache.put(
                result, current=state.still_current(job.dataset, spec["generation"])
            )
        return job.key

    return runner
