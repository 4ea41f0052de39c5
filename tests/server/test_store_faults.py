"""Store-level crash points and cross-process generation withdrawal.

The server-facing half of the WAL engine's contract:

* a ``kill -9`` landing *inside a WAL commit* during a live request tears
  that record — and the next server to open the store truncates the torn
  tail and carries on serving everything acknowledged before it;
* a dataset re-upload on one server process is a generation *record*, so
  a peer process mining the old data observes the bump mid-mine and
  withdraws its now-stale result instead of publishing it;
* a re-upload is one commit: a ``kill -9`` inside its section (the
  ``mid-section`` crash point) leaves the old dataset, its generation and
  its cached CAPs together, never the new data beside the old CAPs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.core.miner import MiscelaMiner
from repro.data.datasets import recommended_parameters
from repro.data.documents import dataset_to_document
from repro.data.synthetic import generate_china6, generate_covid19
from repro.server.app import create_app
from repro.store import Database, wal

from tests.jobs.harness import (
    SRC_DIR,
    ServerProcess,
    poll_job,
    submit_async,
    upload_dataset,
    wait_for_state,
)

DATASET_NAME = "covid19"


@pytest.fixture(scope="module")
def dataset():
    return generate_covid19(seed=7)


@pytest.fixture(scope="module")
def params_doc():
    return recommended_parameters(DATASET_NAME).to_document()


def test_mid_append_during_submit_then_clean_restart(
    tmp_path, dataset, params_doc
):
    store = tmp_path / "store.json"
    # Prime the store: index-definition records and the dataset are on
    # disk, so the *next* commit carrying a jobs record is the submit's.
    with ServerProcess(store, worker_id="prime") as primer:
        upload_dataset(primer, dataset)

    with ServerProcess(
        store, worker_id="doomed", store_fault="mid-append@jobs:1"
    ) as doomed:
        assert submit_async(doomed, DATASET_NAME, params_doc) is None
        # The append died halfway; so did the server.
        assert doomed.wait_exit() == wal.FAULT_EXIT_CODE

    jobs_log = tmp_path / "store.json.wal" / "journal"
    assert wal.verify_log(jobs_log)["torn"]  # half a record is on disk

    # A clean restart recovers: torn tail truncated, nothing acknowledged
    # was lost, and the store is fully serviceable.
    with ServerProcess(store, worker_id="recovered") as recovered:
        status, names = recovered.get_json("/api/v1/datasets")
        assert status == 200
        assert DATASET_NAME in [d["name"] for d in names["datasets"]]
        status, listing = recovered.get_json("/api/v1/jobs")
        assert status == 200
        assert listing["jobs"] == []  # the torn submit never happened
        submitted = submit_async(recovered, DATASET_NAME, params_doc)
        final = poll_job(recovered, submitted["job_id"])
        assert final["state"] == "succeeded"
    assert not wal.verify_log(jobs_log)["torn"]


def test_reupload_on_peer_withdraws_result_mid_mine(
    tmp_path, dataset, params_doc
):
    """Generation bumps are WAL records: server A's re-upload cancels the
    job server B is mining, across process boundaries."""
    store = tmp_path / "store.json"
    # Alpha's idle beat outlasts the test, so beta's job is claimed by
    # beta's own woken loop; alpha claims only what alpha submits.
    with ServerProcess(
        store, worker_id="alpha", lease_seconds=5.0, worker_poll=600.0,
    ) as alpha:
        upload_dataset(alpha, dataset)
        with ServerProcess(
            store, worker_id="beta", lease_seconds=5.0, worker_poll=0.1,
            mine_delay=10.0,
        ) as beta:
            submitted = submit_async(beta, DATASET_NAME, params_doc)
            job_id = submitted["job_id"]
            running = wait_for_state(beta, job_id, "running")
            assert running["worker_id"] == "beta"

            # Re-upload on the *other* server: bumps the generation record.
            upload_dataset(alpha, dataset)

            final = poll_job(beta, job_id)
            assert final["state"] == "cancelled"
            assert not final.get("result_key")

            # The new generation mines clean on either server.
            fresh = submit_async(alpha, DATASET_NAME, params_doc)
            assert fresh["job_id"] != job_id
            done = poll_job(alpha, fresh["job_id"])
            assert done["state"] == "succeeded"


def test_two_processes_see_one_generation_sequence(tmp_path, dataset):
    """The generation counter lives in the store, not per-process memory:
    bumps from both servers accumulate into one shared sequence."""
    store = tmp_path / "store.json"
    with ServerProcess(store, worker_id="alpha") as alpha:
        with ServerProcess(store, worker_id="beta") as beta:
            upload_dataset(alpha, dataset)   # generation 1
            upload_dataset(beta, dataset)    # generation 2
            upload_dataset(alpha, dataset)   # generation 3
            time.sleep(0.2)
            for server in (alpha, beta):
                status, stats = server.get_json("/api/v1/admin/stats")
                assert status == 200
                assert stats["store"]["collections"]["generations"] == 1

    # Ground truth, read straight off the WAL after both servers exit.
    from repro.store.database import Database

    document = Database(store)["generations"].find_one({"name": DATASET_NAME})
    assert document["generation"] == 3


def _china6(seed: int):
    return generate_china6(seed=seed, grid_rows=2, grid_cols=3, steps=120)


_REUPLOAD = """
import sys
from repro.data.synthetic import generate_china6
from repro.server.app import create_app
from repro.store import Database
app = create_app(Database(sys.argv[1]))
app.state.put_dataset(
    generate_china6(seed=2, grid_rows=2, grid_cols=3, steps=120)
)
app.close()
"""


@pytest.mark.parametrize("fault", ["mid-section@generations", None])
def test_crash_mid_reupload_never_serves_stale_caps(tmp_path, fault):
    """Upload and mine china6 seed 1, then re-upload seed 2 in a child
    process killed inside ``put_dataset``'s section (or not killed).  The
    reopened store holds seed 1 with its generation and cached CAPs, or
    seed 2 with the next generation and no cached result: the cache never
    answers with CAPs mined from other data."""
    store = tmp_path / "store.json"
    params = recommended_parameters("china6")
    first = _china6(1)
    app = create_app(Database(store))
    try:
        app.state.put_dataset(first)
        assert app.state.cache.mine_cached(first, params).caps
    finally:
        app.close()

    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env.pop(wal.FAULT_ENV, None)
    env.pop("REPRO_JOBS_FAULT", None)
    if fault:
        env[wal.FAULT_ENV] = fault
    child = subprocess.run(
        [sys.executable, "-c", _REUPLOAD, str(store)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == (wal.FAULT_EXIT_CODE if fault else 0), child.stderr

    app = create_app(Database(store))
    try:
        state = app.state
        stored = state.database["datasets"].find_one({"name": "china6"})["dataset"]
        generation = state.dataset_generation("china6")
        cached = state.cache.get("china6", params)
        if fault:
            assert stored == dataset_to_document(first)
            assert generation == 1
            assert cached is not None
        else:
            assert stored == dataset_to_document(_china6(2))
            assert generation == 2
            assert cached is None
        if cached is not None:
            fresh = MiscelaMiner(params).mine(state.get_dataset("china6"))
            assert [c.to_document() for c in cached.caps] == [
                c.to_document() for c in fresh.caps
            ]
    finally:
        app.close()
