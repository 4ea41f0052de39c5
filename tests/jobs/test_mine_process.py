"""Whole mines in worker processes: lifecycle, failure, and equivalence.

Each claim-loop thread mines in its own worker process
(:class:`repro.jobs.mine_process.MineProcess`).  These tests hold the
worker's lifetime to its app's (``close(wait=True)`` leaves none alive; a
``kill -9`` or crash-point exit of a server leaves no orphan), hold a
worker's death to a structured job failure with the next job on a fresh
worker, and hold the pooled result to byte-identity with a sync mine and
a direct :class:`~repro.core.miner.MiscelaMiner` mine.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.miner import MiningResult, MiscelaMiner
from repro.core.parallel import MiningControl
from repro.core.result_columns import result_to_columns
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.jobs import TERMINAL_STATES
from repro.jobs.mine_process import MineProcess
from repro.server.app import TestClient, create_app
from tests.conftest import mine_v1, result_caps
from tests.jobs.harness import ServerProcess, poll_job, submit_async, upload_dataset

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads the process table from /proc"
)

ROOT = Path(__file__).resolve().parents[2]
API = "/api/v1"
BASE = recommended_parameters("santander")
PARAMS = BASE.to_document()
TIMEOUT = 60.0
#: How long a worker may outlive its server.
ORPHAN_SECONDS = 5.0


@pytest.fixture(scope="module")
def dataset():
    return generate_santander(seed=2, neighbourhoods=4, steps=240)


def process_table() -> dict[int, tuple[int, str]]:
    """Every process: pid -> (parent pid, state letter)."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses: split after it.
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        table[int(entry)] = (int(ppid), state)
    return table


def descendants(pid: int) -> dict[int, int]:
    """Live processes below ``pid``: pid -> parent pid."""
    table = process_table()
    found: dict[int, int] = {}
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, (ppid, state) in table.items():
            if ppid == parent and state != "Z" and child not in found:
                found[child] = ppid
                frontier.append(child)
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie has exited)."""
    entry = process_table().get(pid)
    return entry is not None and entry[1] != "Z"


def wait_until_gone(pids, timeout: float) -> list[int]:
    """The pids still alive after ``timeout`` seconds (empty once all exit)."""
    deadline = time.monotonic() + timeout
    while True:
        left = [pid for pid in pids if alive(pid)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def poll(client, job_id: str) -> dict:
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        doc = client.get(f"{API}/jobs/{job_id}").json()
        if doc["state"] in TERMINAL_STATES:
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {doc['state']} after {TIMEOUT}s")


def submit(client, params=PARAMS) -> str:
    response = mine_v1(client, "santander", params, mode="async")
    assert response.status == 202, response.json()
    return response.json()["job_id"]


def cap_bytes(caps) -> str:
    return json.dumps([cap.to_document() for cap in caps], sort_keys=True)


class TestLifetime:
    def test_close_wait_leaves_no_worker_process(self, dataset):
        before = set(descendants(os.getpid()))
        app = create_app()
        client = TestClient(app)
        assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
        assert poll(client, submit(client))["state"] == "succeeded"
        workers = app.state.jobs.loop.workers
        pids = [worker.pid for worker in workers if worker.pid is not None]
        assert pids and all(alive(pid) for pid in pids)
        assert all(pid in descendants(os.getpid()) for pid in pids)

        app.close(wait=True)

        assert [worker.pid for worker in workers] == [None] * len(workers)
        assert wait_until_gone(pids, 0.0) == []
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("job-mine-")
        ]
        # What is left is multiprocessing's own helpers, shared by the
        # process (the fork server and the resource tracker): nothing
        # below them, and nothing else new.
        left = {
            pid: ppid for pid, ppid in descendants(os.getpid()).items()
            if pid not in before
        }
        assert all(ppid == os.getpid() for ppid in left.values()), left
        assert len(left) <= 2, left

    def test_workers_start_on_the_first_whole_mine(self, dataset):
        app = create_app()
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            assert mine_v1(client, "santander", PARAMS).status == 201  # sync
            assert [w.pid for w in app.state.jobs.loop.workers] == [None, None]
            assert poll(client, submit(client, dict(PARAMS, min_support=11)))[
                "state"
            ] == "succeeded"
            started = [w.pid for w in app.state.jobs.loop.workers if w.pid]
            assert len(started) == 1
        finally:
            app.close(wait=True)

    @pytest.mark.parametrize("ending", ["kill-9", "crash-point"])
    def test_server_exit_leaves_no_orphan(self, tmp_path, dataset, ending):
        fault = "after-claim:2" if ending == "crash-point" else None
        server = ServerProcess(tmp_path / "db.json", fault=fault, job_workers=1)
        with server:
            upload_dataset(server, dataset)
            job = submit_async(server, "santander", PARAMS)
            assert poll_job(server, job["job_id"])["state"] == "succeeded"
            below = descendants(server.proc.pid)
            # The worker is a child of multiprocessing's fork server.
            assert any(ppid != server.proc.pid for ppid in below.values()), below
            if ending == "kill-9":
                server.kill()
            else:
                submit_async(server, "santander", dict(PARAMS, min_support=11))
                assert server.wait_exit() == 70
            assert wait_until_gone(below, ORPHAN_SECONDS) == []

    def test_server_death_mid_mine_stops_the_worker(self, tmp_path):
        """A worker mid-run notices its server's death at its next checkpoint."""
        script = (
            "import functools, os, signal, threading\n"
            "from repro.core.parallel import MiningControl\n"
            "from repro.data.datasets import recommended_parameters\n"
            "from repro.data.synthetic import generate_santander\n"
            "from repro.jobs import mine_process\n"
            "from tests.jobs.harness import scripted_mine\n"
            "mine_process.mine_columns = functools.partial(\n"
            "    scripted_mine, steps=100000, delay=0.01)\n"
            "dataset = generate_santander(seed=2, neighbourhoods=4, steps=240)\n"
            "params = recommended_parameters('santander')\n"
            "worker = mine_process.MineProcess()\n"
            "ticked = threading.Event()\n"
            "control = MiningControl(progress=lambda done, total: ticked.set())\n"
            "threading.Thread(target=worker.mine, args=(dataset, params, control),\n"
            "                 daemon=True).start()\n"
            "assert ticked.wait(60)\n"
            "print(worker.pid, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        worker = int(proc.stdout.split()[0])
        assert wait_until_gone([worker], ORPHAN_SECONDS) == []

    def test_interpreter_exit_without_close_stops_the_workers(self):
        """An app never closed: its idle worker neither blocks the exit
        nor outlives it."""
        script = (
            "import time\n"
            "from repro.data.datasets import recommended_parameters\n"
            "from repro.data.synthetic import generate_santander\n"
            "from repro.server.app import TestClient, create_app\n"
            "app = create_app()\n"
            "client = TestClient(app)\n"
            "client.upload_dataset(generate_santander(seed=2, neighbourhoods=4, steps=240))\n"
            "body = {'parameters': recommended_parameters('santander').to_document(),\n"
            "        'mode': 'async'}\n"
            "job = client.post('/api/v1/datasets/santander/results', json_body=body).json()\n"
            "while client.get(f\"/api/v1/jobs/{job['job_id']}\").json()['state'] != 'succeeded':\n"
            "    time.sleep(0.02)\n"
            "print(*[w.pid for w in app.state.jobs.loop.workers if w.pid], flush=True)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        assert proc.returncode == 0, proc.stderr
        workers = [int(pid) for pid in proc.stdout.split()]
        assert workers
        assert wait_until_gone(workers, ORPHAN_SECONDS) == []


    def test_a_worker_that_never_starts_fails_the_job(self, tmp_path):
        """A main module that blocks when imported (as the worker imports
        it) holds its worker's start: the job fails, nothing hangs."""
        script = (
            "import time\n"
            "from repro.data.datasets import recommended_parameters\n"
            "from repro.data.synthetic import generate_santander\n"
            "from repro.jobs import mine_process\n"
            "from repro.server.app import TestClient, create_app\n"
            "mine_process.START_TIMEOUT_SECONDS = 3.0\n"
            "app = create_app(job_workers=1)\n"
            "client = TestClient(app)\n"
            "client.upload_dataset(generate_santander(seed=2, neighbourhoods=4, steps=240))\n"
            "body = {'parameters': recommended_parameters('santander').to_document(),\n"
            "        'mode': 'async'}\n"
            "job = client.post('/api/v1/datasets/santander/results', json_body=body).json()\n"
            "url = f\"/api/v1/jobs/{job['job_id']}\"\n"
            "while client.get(url).json()['state'] not in ('succeeded', 'failed'):\n"
            "    time.sleep(0.02)\n"
            "if __name__ != '__main__':\n"
            "    time.sleep(3600)  # the worker importing this module: a server started at import\n"
            "doc = client.get(url).json()\n"
            "print(doc['state'], doc['error']['type'], doc['error']['message'], flush=True)\n"
            "app.close(wait=True)\n"
        )
        path = tmp_path / "unguarded_main.py"
        path.write_text(script)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(path)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        assert proc.returncode == 0, proc.stderr
        line = proc.stdout.splitlines()[-1]
        assert line.startswith("failed WorkerDied "), proc.stdout
        assert "did not start (silent for 3s" in line


class TestWorkerDeath:
    def test_sigkill_mid_mine_fails_the_job_and_the_next_runs_fresh(
        self, dataset, worker_mine, monkeypatch
    ):
        app = create_app(job_workers=1)
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            worker_mine(steps=400, delay=0.05)
            job_id = submit(client)
            deadline = time.monotonic() + TIMEOUT
            while client.get(f"{API}/jobs/{job_id}").json()["progress"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            worker = app.state.jobs.loop.workers[0]
            killed = worker.pid
            os.kill(killed, signal.SIGKILL)

            final = poll(client, job_id)
            assert final["state"] == "failed"
            assert final["error"]["type"] == "WorkerDied"
            assert f"process {killed} died" in final["error"]["message"]
            assert "SIGKILL" in final["error"]["message"]
            assert client.get(f"{API}/datasets/santander/results").json()["results"] == []

            monkeypatch.undo()  # the real miner again
            again = poll(client, submit(client))
            assert again["state"] == "succeeded", again
            assert worker.pid not in (None, killed) and alive(worker.pid)
            direct = MiscelaMiner(BASE).mine(dataset)
            assert json.dumps(result_caps(client, again["result_key"]), sort_keys=True) == (
                cap_bytes(direct.caps)
            )
        finally:
            app.close(wait=True)

    def test_worker_error_is_the_jobs_structured_error(self, dataset, monkeypatch):
        from repro.jobs import mine_process

        monkeypatch.setattr(mine_process, "mine_columns", _raise_value_error)
        app = create_app(job_workers=1)
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            final = poll(client, submit(client))
            assert final["state"] == "failed"
            assert final["error"]["type"] == "ValueError"
            assert final["error"]["message"] == "bad input"
            first = app.state.jobs.loop.workers[0].pid
            # A failed run leaves the worker up for the next job.
            final = poll(client, submit(client, dict(PARAMS, min_support=11)))
            assert final["state"] == "failed"
            assert app.state.jobs.loop.workers[0].pid == first
        finally:
            app.close(wait=True)


def _raise_value_error(dataset, params, control):
    raise ValueError("bad input")


class TestProgressRelay:
    def test_ticks_coalesce_and_progress_never_regresses(
        self, tmp_path, dataset, worker_mine, monkeypatch
    ):
        """A many-unit mine commits fewer progress records than it sent
        ticks; each relayed tick is newer than the last, and the stored
        fraction never goes backwards."""
        from repro.jobs.durable import DurableJobStore
        from repro.store import Database

        steps = 500
        relayed: list[tuple[int, float]] = []
        original = DurableJobStore.set_progress

        def recording(self, job_id, done, total, attempt=None):
            job = original(self, job_id, done, total, attempt=attempt)
            relayed.append((done, job.progress))
            return job

        monkeypatch.setattr(DurableJobStore, "set_progress", recording)
        worker_mine(steps=steps, delay=0.0)
        app = create_app(Database(tmp_path / "db.json"), job_workers=1)
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            assert poll(client, submit(client))["state"] == "succeeded"
        finally:
            app.close(wait=True)
        dones = [done for done, _ in relayed]
        fractions = [fraction for _, fraction in relayed]
        assert 1 <= len(relayed) < steps
        assert dones == sorted(set(dones))
        assert fractions == sorted(fractions)
        assert dones[-1] == steps


BASE_ETA = BASE.distance_threshold


@pytest.fixture(scope="module")
def served(dataset):
    """Two apps over their own stores: one mines async, one mines sync."""
    apps = [create_app(job_workers=1), create_app(job_workers=1)]
    clients = [TestClient(app) for app in apps]
    for client in clients:
        assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
    yield clients
    for app in apps:
        app.close(wait=True)


@pytest.fixture(scope="module")
def worker():
    process = MineProcess()
    yield process
    process.stop()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    psi=st.integers(min_value=8, max_value=16),
    eta=st.sampled_from([0.8, 1.0, 1.25]),
    delta=st.integers(min_value=0, max_value=2),
    direction_aware=st.booleans(),
    n_jobs=st.sampled_from([1, 2]),
)
def test_pooled_result_is_byte_identical(
    dataset, served, worker, psi, eta, delta, direction_aware, n_jobs
):
    """Worker-mined = sync-mined = directly mined, CAP for CAP."""
    assume(not (direction_aware and delta))  # not implemented
    params = BASE.with_updates(
        min_support=psi,
        distance_threshold=BASE_ETA * eta,
        max_delay=delta,
        direction_aware=direction_aware,
        n_jobs=n_jobs,
    )
    direct = MiscelaMiner(params).mine(dataset)
    expected = cap_bytes(direct.caps)

    columns = worker.mine(dataset, params, MiningControl())
    reference = result_to_columns(direct)
    assert {k: v for k, v in columns.items() if k != "elapsed_seconds"} == {
        k: v for k, v in reference.items() if k != "elapsed_seconds"
    }
    assert cap_bytes(MiningResult.from_document(columns).caps) == expected

    document = dict(params.to_document(), n_jobs=n_jobs)
    pooled, sync = served
    final = poll(pooled, submit(pooled, document))
    assert final["state"] == "succeeded", final
    assert json.dumps(result_caps(pooled, final["result_key"]), sort_keys=True) == expected
    created = mine_v1(sync, "santander", document)
    assert created.status == 201
    assert json.dumps(result_caps(sync, created.json()["key"]), sort_keys=True) == expected
