"""Distributed (sharded) mining under ``kill -9``: the PR-7 crash matrix.

Two real ``repro serve`` subprocesses share one store snapshot; the mine is
submitted ``mode=distributed`` so a planner splits it into shard sub-jobs
that either process's claim loops can claim under their own leases.  The
matrix proves the headline robustness claims:

* a clean distributed run produces the byte-identical CAP page a serial
  mine produces, and the job resource exposes the shard tree;
* ``kill -9`` landing mid-shard costs *at most one shard* of recomputation
  — the survivor reclaims exactly the lost shard (execution audit log),
  everything already finished stays finished;
* the deterministic crash points ``after-shard-claim`` and
  ``before-merge-publish`` lose no completed shard work either;
* a poison shard that kills its worker ``max_attempts`` times dead-letters
  with a structured ``AttemptsExhausted`` error and fails the parent with
  a diagnosis naming the shard, instead of crash-looping forever.

Byte-identity everywhere: every succeeded path must serve the exact page
:func:`reference_caps_bytes` computes in-process with no sharding at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.data.datasets import generate, recommended_parameters

from tests.jobs.harness import (
    JOB_TIMEOUT,
    SRC_DIR,
    ServerProcess,
    caps_page_bytes,
    poll_job,
    read_exec_log,
    reference_caps_bytes,
    submit_distributed,
    upload_dataset,
    wait_for_exec_entries,
)

DATASET_NAME = "covid19"
FAULT_EXIT = 70  # os._exit code of a REPRO_JOBS_FAULT crash point


@pytest.fixture(scope="module")
def dataset():
    return generate(DATASET_NAME, seed=7)


@pytest.fixture(scope="module")
def params_doc():
    return recommended_parameters(DATASET_NAME).to_document()


@pytest.fixture(scope="module")
def reference_page(dataset, params_doc):
    return reference_caps_bytes(dataset, params_doc)


def shard_executions(log_path, parent_id):
    """Audit entries grouped per shard id of one distributed parent."""
    by_shard: dict[str, list[tuple[str, str, int]]] = {}
    for entry in read_exec_log(log_path):
        job_id = entry[0]
        if job_id.startswith(f"{parent_id}-s"):
            by_shard.setdefault(job_id, []).append(entry)
    return by_shard


def wait_for_any_shard_execution(log_path, parent_id, timeout=JOB_TIMEOUT):
    """Block until the audit log shows some shard of ``parent_id`` started."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        started = shard_executions(log_path, parent_id)
        if started:
            return started
        time.sleep(0.02)
    raise AssertionError(f"no shard of {parent_id} ever executed")


def test_distributed_run_matches_serial_and_exposes_shard_tree(
    tmp_path, dataset, params_doc, reference_page
):
    store = tmp_path / "store.json"
    exec_log = tmp_path / "exec.log"
    with ServerProcess(
        store, worker_id="solo", exec_log=exec_log, lease_seconds=5.0,
        worker_poll=0.1,
    ) as server:
        upload_dataset(server, dataset)
        submitted = submit_distributed(server, DATASET_NAME, params_doc)
        job_id = submitted["job_id"]
        final = poll_job(server, job_id)
        assert final["state"] == "succeeded", final
        # The v1 job resource of a distributed parent carries the shard tree.
        shards = final["shards"]
        assert len(shards) >= 2
        assert [entry["shard_index"] for entry in shards] == list(
            range(len(shards))
        )
        assert all(entry["state"] == "succeeded" for entry in shards)
        assert final["merge"]["state"] == "succeeded"
        # Exactly-once: every shard and the merge executed once.
        by_shard = shard_executions(exec_log, job_id)
        assert set(by_shard) == {entry["job_id"] for entry in shards}
        assert all(len(runs) == 1 for runs in by_shard.values())
        merge_runs = [e for e in read_exec_log(exec_log)
                      if e[0] == final["merge"]["job_id"]]
        assert len(merge_runs) == 1
        # The merged page is the byte-identical serial page.
        key = final["result_key"]
        assert caps_page_bytes(server, key) == reference_page
        # Admin stats expose the per-kind breakdown.
        status, stats = server.get_json("/api/v1/admin/stats")
        assert status == 200
        assert stats["jobs"]["kinds"]["shard"] == len(shards)
        assert stats["jobs"]["dead_lettered"] == 0


def test_kill9_mid_shard_survivor_recomputes_only_lost_shard(
    tmp_path, dataset, params_doc, reference_page
):
    store = tmp_path / "store.json"
    exec_log = tmp_path / "exec.log"
    with ServerProcess(
        store, worker_id="doomed", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1, shard_delay=8.0,
    ) as doomed:
        upload_dataset(doomed, dataset)
        submitted = submit_distributed(doomed, DATASET_NAME, params_doc)
        job_id = submitted["job_id"]
        # The shard delay pins the claimed shard mid-execution; kill only
        # once the audit log proves an execution *started* (the claim
        # itself becomes visible a hair earlier).
        started = wait_for_any_shard_execution(exec_log, job_id)
        doomed.kill()
    # With one driver thread and an 8s shard hold, the dead server was
    # executing exactly one shard when SIGKILL landed.
    assert sum(len(runs) for runs in started.values()) == 1
    (lost_shard,) = started

    with ServerProcess(
        store, worker_id="survivor", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1,
    ) as survivor:
        final = poll_job(survivor, job_id)
        assert final["state"] == "succeeded", final
        by_shard = shard_executions(exec_log, job_id)
        # Takeover recomputed exactly the lost shard — two audit entries on
        # distinct workers — and nothing else.
        assert [w for _, w, _ in by_shard.pop(lost_shard)] == [
            "doomed", "survivor"
        ]
        assert all(len(runs) == 1 for runs in by_shard.values())
        assert all(runs[0][1] == "survivor" for runs in by_shard.values())
        assert caps_page_bytes(survivor, final["result_key"]) == reference_page

    # The persisted span tree outlives both processes and records the
    # forensics: the dead worker's attempt is marked "interrupted" by the
    # reclaimer, the survivor's recompute closed "ok".
    from repro.jobs import DurableJobStore
    from repro.obs.trace import trace_tree
    from repro.store.database import Database

    registry = DurableJobStore(Database(store), worker_id="inspector")
    tree = trace_tree(registry, job_id)
    trace_id = tree["trace_id"]
    assert trace_id  # minted by the submitting request's X-Request-Id layer
    nodes = {node["job_id"]: node for node in tree["children"]}
    lost = nodes[lost_shard]
    assert [
        (span["attempt"], span["worker_id"], span["status"])
        for span in lost["spans"]
    ] == [(1, "doomed", "interrupted"), (2, "survivor", "ok")]
    assert lost["spans"][0]["end"] is not None  # reclaim stamped a close time
    # Every span of the family shares the submitting request's trace id.
    family = tree["spans"] + [
        span for node in tree["children"] for span in node["spans"]
    ]
    assert family and all(span["trace_id"] == trace_id for span in family)
    # Succeeded shards carry their measured wall-time — the calibration
    # ground truth for estimate_seed_cost — on the job document itself.
    shards = [node for node in nodes.values() if node["kind"] == "shard"]
    assert shards and all(
        node["elapsed_seconds"] is not None for node in shards
    )
    del registry

    # ``repro trace`` reconstructs the same timeline from the snapshot.
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(SRC_DIR)
    )
    rendered = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", job_id,
         "--store", str(store)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert rendered.returncode == 0, rendered.stderr
    assert f"trace {trace_id}" in rendered.stdout
    lost_rows = [
        line for line in rendered.stdout.splitlines() if lost_shard in line
    ]
    assert any("interrupted" in line and "doomed" in line for line in lost_rows)
    assert any("ok" in line and "survivor" in line for line in lost_rows)
    assert "measured shard wall-times" in rendered.stdout


def test_crash_after_shard_claim_leaves_result_intact(
    tmp_path, dataset, params_doc, reference_page
):
    store = tmp_path / "store.json"
    exec_log = tmp_path / "exec.log"
    with ServerProcess(
        store, worker_id="claimer", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1, fault="after-shard-claim",
    ) as claimer:
        upload_dataset(claimer, dataset)
        submitted = submit_distributed(claimer, DATASET_NAME, params_doc)
        job_id = submitted["job_id"]
        # The crash point fires inside the first shard claim, after the CAS
        # write hits the WAL but before the runner logs an execution.
        assert claimer.wait_exit(JOB_TIMEOUT) == FAULT_EXIT
    assert shard_executions(exec_log, job_id) == {}

    with ServerProcess(
        store, worker_id="survivor", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1,
    ) as survivor:
        final = poll_job(survivor, job_id)
        assert final["state"] == "succeeded", final
        by_shard = shard_executions(exec_log, job_id)
        # The orphaned claim never ran, so recovery costs zero recompute:
        # every shard executes exactly once, all on the survivor.
        assert all(len(runs) == 1 for runs in by_shard.values())
        assert all(runs[0][1] == "survivor" for runs in by_shard.values())
        assert caps_page_bytes(survivor, final["result_key"]) == reference_page


def test_crash_before_merge_publish_never_recomputes_shards(
    tmp_path, dataset, params_doc, reference_page
):
    store = tmp_path / "store.json"
    exec_log = tmp_path / "exec.log"
    with ServerProcess(
        store, worker_id="merger", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1, fault="before-merge-publish",
    ) as merger:
        upload_dataset(merger, dataset)
        submitted = submit_distributed(merger, DATASET_NAME, params_doc)
        job_id = submitted["job_id"]
        # All shards complete, the merge is claimed and assembled, and the
        # process dies on the brink of publishing.
        assert merger.wait_exit(JOB_TIMEOUT) == FAULT_EXIT

    with ServerProcess(
        store, worker_id="survivor", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1,
    ) as survivor:
        final = poll_job(survivor, job_id)
        assert final["state"] == "succeeded", final
        # The merge re-ran (two audit entries), but no shard did — their
        # outputs were durable, which is the whole point of persisting them.
        by_shard = shard_executions(exec_log, job_id)
        assert by_shard and all(len(runs) == 1 for runs in by_shard.values())
        assert all(runs[0][1] == "merger" for runs in by_shard.values())
        merge_runs = wait_for_exec_entries(exec_log, f"{job_id}-merge", count=2)
        assert [w for _, w, _ in merge_runs] == ["merger", "survivor"]
        assert caps_page_bytes(survivor, final["result_key"]) == reference_page


def test_sigterm_releases_claimed_shard_for_immediate_takeover(
    tmp_path, dataset, params_doc, reference_page
):
    store = tmp_path / "store.json"
    exec_log = tmp_path / "exec.log"
    # A generous lease: if takeover depended on lease expiry instead of the
    # graceful release, the second phase would stall visibly.
    with ServerProcess(
        store, worker_id="retiring", exec_log=exec_log, lease_seconds=60.0,
        worker_poll=0.1, shard_delay=30.0,
    ) as retiring:
        upload_dataset(retiring, dataset)
        submitted = submit_distributed(retiring, DATASET_NAME, params_doc)
        job_id = submitted["job_id"]
        started = wait_for_any_shard_execution(exec_log, job_id)
        (held_shard,) = started
        assert retiring.terminate() == 0
    # The graceful exit released the claim: the shard is queued again, not
    # running under a 60s lease nobody will renew.
    from repro.jobs import DurableJobStore
    from repro.store.database import Database

    registry = DurableJobStore(Database(store), worker_id="inspector")
    released = registry.get(held_shard)
    assert released.state == "queued"
    assert released.worker_id is None
    assert released.not_before is None  # immediate takeover, no backoff
    assert released.attempt == 1  # the spent attempt stays on the record
    del registry

    with ServerProcess(
        store, worker_id="successor", exec_log=exec_log, lease_seconds=60.0,
        worker_poll=0.1,
    ) as successor:
        final = poll_job(successor, job_id)
        assert final["state"] == "succeeded", final
        by_shard = shard_executions(exec_log, job_id)
        assert [w for _, w, _ in by_shard[held_shard]] == [
            "retiring", "successor"
        ]
        assert caps_page_bytes(successor, final["result_key"]) == reference_page


def test_poison_shard_dead_letters_and_fails_parent(tmp_path):
    # china6 planned at one worker is a single shard: every attempt lands
    # on the same poison unit, so max_attempts=2 is exhausted by exactly
    # two crashes.
    dataset = generate("china6", seed=3)
    params_doc = recommended_parameters("china6").to_document()
    store = tmp_path / "store.json"
    exec_log = tmp_path / "exec.log"
    with ServerProcess(
        store, worker_id="crash-1", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1, fault="mid-shard", max_attempts=2,
    ) as first:
        upload_dataset(first, dataset)
        submitted = submit_distributed(
            first, "china6", params_doc, plan_workers=1
        )
        job_id = submitted["job_id"]
        assert first.wait_exit(JOB_TIMEOUT) == FAULT_EXIT
    with ServerProcess(
        store, worker_id="crash-2", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1, fault="mid-shard", max_attempts=2,
    ) as second:
        # Recovery requeues the lapsed shard (attempt 1 of 2); the retry
        # crashes at the same point and exhausts the budget.
        assert second.wait_exit(JOB_TIMEOUT) == FAULT_EXIT

    with ServerProcess(
        store, worker_id="healthy", exec_log=exec_log, lease_seconds=1.0,
        worker_poll=0.1, max_attempts=2,
    ) as healthy:
        final = poll_job(healthy, job_id)
        assert final["state"] == "failed", final
        # The parent's diagnosis names the culprit shard and the structured
        # AttemptsExhausted cause.
        assert final["error"]["type"] == "AttemptsExhausted"
        assert f"{job_id}-s000" in final["error"]["message"]
        assert "failed after 2 attempt(s)" in final["error"]["message"]
        shard = final["shards"][0]
        assert shard["state"] == "failed"
        assert shard["error"]["type"] == "AttemptsExhausted"
        assert shard["attempt"] == 2
        # Both crash attempts are in the audit log — and no third ever ran.
        shard_runs = [e for e in read_exec_log(exec_log)
                      if e[0] == f"{job_id}-s000"]
        assert [w for _, w, _ in shard_runs] == ["crash-1", "crash-2"]
        # The poisoned inputs are quarantined and counted.
        status, stats = healthy.get_json("/api/v1/admin/stats")
        assert status == 200
        assert stats["jobs"]["dead_lettered"] == 1
