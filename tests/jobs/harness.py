"""Fault-injection harness: real store-backed servers, killed on purpose.

Durability claims are only worth what the tests that kill things can prove.
This module runs the actual ``repro.cli serve`` entry point in a subprocess
against a shared snapshot, drives it over real sockets, and takes it down
at chosen transition points:

* **deterministic crash points** — the ``REPRO_JOBS_FAULT`` environment
  variable makes :class:`repro.jobs.durable.DurableJobStore` hard-exit
  (``os._exit``) at a named point in the transition protocol, exactly as
  if ``kill -9`` landed there; ``REPRO_STORE_FAULT`` does the same one
  layer down, inside the WAL write path (:mod:`repro.store.wal`);
* **timing-based kills** — :meth:`ServerProcess.kill` sends a real
  ``SIGKILL``, typically while ``REPRO_JOBS_MINE_DELAY`` holds a claimed
  job mid-mine long enough to observe it ``running``;
* **execution audit** — ``REPRO_JOBS_EXEC_LOG`` makes every worker append
  one line per execution, so exactly-once assertions hold across any
  number of processes appending to one file.

The recovery matrix (``tests/jobs/test_recovery.py``) and the two-process
lease-contention suite (``tests/server/test_multiprocess_jobs.py``) are
built entirely from these pieces.
"""

from __future__ import annotations

import csv
import http.client
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.core.miner import MiningResult
from repro.core.result_columns import result_to_columns
from repro.data.csv_io import dataset_to_rows, iter_chunks
from repro.data.schema import LOCATION_COLUMNS

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Generous ceilings: CI runners are slow and single-core; a healthy run
#: uses a fraction of these.
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
JOB_TIMEOUT = 120.0

TERMINAL = {"succeeded", "failed", "cancelled"}


class ServerDied(AssertionError):
    """The server subprocess exited before it became ready."""


class ServerProcess:
    """One ``repro serve`` subprocess bound to a shared store snapshot."""

    def __init__(
        self,
        store_path: Path,
        *,
        lease_seconds: float = 1.0,
        worker_poll: float = 0.2,
        job_workers: int = 1,
        worker_id: str | None = None,
        fault: str | None = None,
        store_fault: str | None = None,
        stream_fault: str | None = None,
        exec_log: Path | None = None,
        mine_delay: float | None = None,
        shard_delay: float | None = None,
        max_attempts: int | None = None,
        stream_retention: int | None = None,
        compact_seconds: float | None = None,
        start: bool = True,
    ) -> None:
        self.store_path = Path(store_path)
        self.args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--store", str(store_path),
            "--lease-seconds", str(lease_seconds),
            "--worker-poll", str(worker_poll),
            "--job-workers", str(job_workers),
        ]
        if worker_id:
            self.args += ["--worker-id", worker_id]
        if max_attempts is not None:
            self.args += ["--max-attempts", str(max_attempts)]
        if stream_retention is not None:
            self.args += ["--stream-retention", str(stream_retention)]
        if compact_seconds is not None:
            self.args += ["--compact-seconds", str(compact_seconds)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = (
            f"{SRC_DIR}{os.pathsep}{self.env['PYTHONPATH']}"
            if self.env.get("PYTHONPATH")
            else str(SRC_DIR)
        )
        self.env.pop("REPRO_JOBS_FAULT", None)
        self.env.pop("REPRO_STORE_FAULT", None)
        self.env.pop("REPRO_STREAM_FAULT", None)
        self.env.pop("REPRO_JOBS_MINE_DELAY", None)
        self.env.pop("REPRO_JOBS_SHARD_DELAY", None)
        if fault:
            self.env["REPRO_JOBS_FAULT"] = fault
        if store_fault:
            self.env["REPRO_STORE_FAULT"] = store_fault
        if stream_fault:
            self.env["REPRO_STREAM_FAULT"] = stream_fault
        if exec_log:
            self.env["REPRO_JOBS_EXEC_LOG"] = str(exec_log)
        if mine_delay:
            self.env["REPRO_JOBS_MINE_DELAY"] = str(mine_delay)
        if shard_delay:
            self.env["REPRO_JOBS_SHARD_DELAY"] = str(shard_delay)
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.lines: list[str] = []
        self._reader: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            self.args,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        ready = threading.Event()

        def read() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                if line.startswith("MISCELA_READY"):
                    self.port = int(line.split("port=")[1])
                    ready.set()
            ready.set()  # EOF: unblock the waiter either way

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + READY_TIMEOUT
        while not ready.wait(timeout=0.1):
            if time.monotonic() > deadline:
                self.kill()
                raise ServerDied(f"server not ready in {READY_TIMEOUT}s: {self.lines}")
        if self.port is None:
            raise ServerDied(f"server exited before readiness: {self.lines}")
        return self

    def kill(self) -> int | None:
        """``kill -9`` — the whole point of this harness."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        return self.proc.wait(timeout=REQUEST_TIMEOUT)

    def interrupt(self) -> int | None:
        """Graceful Ctrl-C: the server saves its snapshot on the way out."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        return self.proc.wait(timeout=REQUEST_TIMEOUT)

    def terminate(self) -> int | None:
        """Graceful SIGTERM: workers release their claims on the way out."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=REQUEST_TIMEOUT)

    def wait_exit(self, timeout: float = REQUEST_TIMEOUT) -> int:
        """Wait for a fault-point exit (``os._exit``) to happen."""
        assert self.proc is not None
        return self.proc.wait(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    # -- HTTP ------------------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        json_body=None,
        text_body: str | None = None,
        timeout: float = REQUEST_TIMEOUT,
    ) -> tuple[int | None, bytes | None]:
        """One request; ``(None, None)`` when the server died mid-request.

        A fault-point exit tears the connection down before any response is
        written — for the crash tests that is the *expected* outcome, so it
        is reported, not raised.
        """
        assert self.port is not None
        data = None
        headers = {}
        if json_body is not None:
            data = json.dumps(json_body).encode()
            headers["Content-Type"] = "application/json"
        elif text_body is not None:
            data = text_body.encode()
            headers["Content-Type"] = "text/plain"
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=data,
            method=method,
            headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except (urllib.error.URLError, http.client.HTTPException, OSError):
            # The server died answering: no connection, or a response cut
            # off mid-body (a crash point firing while it was being sent).
            return None, None

    def get_json(self, path: str):
        status, body = self.request("GET", path)
        return status, json.loads(body) if body else None

    def post_json(self, path: str, json_body=None, text_body=None):
        status, body = self.request("POST", path, json_body=json_body,
                                    text_body=text_body)
        return status, json.loads(body) if body else None


# -- dataset upload over real HTTP ----------------------------------------------


def upload_dataset(server: ServerProcess, dataset, chunk_lines: int = 10_000) -> None:
    """Run the three-step chunked upload against a live server."""
    data_rows, location_rows = dataset_to_rows(dataset)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(LOCATION_COLUMNS)
    for row in location_rows:
        writer.writerow([row.sensor_id, row.attribute, repr(row.lat), repr(row.lon)])
    status, _ = server.post_json(
        f"/api/v1/datasets/{dataset.name}/upload/begin",
        json_body={
            "location_csv": buffer.getvalue(),
            "attribute_csv": "\n".join(dataset.attributes) + "\n",
        },
    )
    assert status == 201, f"upload/begin -> {status}"
    for chunk in iter_chunks(data_rows, chunk_lines):
        status, _ = server.post_json(
            f"/api/v1/datasets/{dataset.name}/upload/chunk", text_body=chunk
        )
        assert status == 200, f"upload/chunk -> {status}"
    status, _ = server.post_json(f"/api/v1/datasets/{dataset.name}/upload/finish")
    assert status == 201, f"upload/finish -> {status}"


# -- job driving -----------------------------------------------------------------


def submit_async(server: ServerProcess, dataset_name: str, params_doc: dict):
    """Submit an async mine; returns the job resource, or ``None`` if the
    server died answering (a crash-point landing inside the submission)."""
    status, payload = server.post_json(
        f"/api/v1/datasets/{dataset_name}/results",
        json_body={"parameters": params_doc, "mode": "async"},
    )
    if status is None:
        return None
    assert status == 202, (status, payload)
    return payload


def submit_distributed(
    server: ServerProcess,
    dataset_name: str,
    params_doc: dict,
    plan_workers: int | None = None,
):
    """Submit a distributed (sharded) mine; ``None`` if the server died."""
    body = {"parameters": params_doc, "mode": "distributed"}
    if plan_workers is not None:
        body["plan_workers"] = plan_workers
    status, payload = server.post_json(
        f"/api/v1/datasets/{dataset_name}/results", json_body=body
    )
    if status is None:
        return None
    assert status == 202, (status, payload)
    return payload


def poll_job(server: ServerProcess, job_id: str, timeout: float = JOB_TIMEOUT) -> dict:
    """Poll one job to a terminal state (raises on timeout)."""
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        status, doc = server.get_json(f"/api/v1/jobs/{job_id}")
        if status == 200 and doc["state"] in TERMINAL:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s: {doc}")


def wait_for_state(
    server: ServerProcess, job_id: str, state: str, timeout: float = JOB_TIMEOUT
) -> dict:
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        status, doc = server.get_json(f"/api/v1/jobs/{job_id}")
        if status == 200 and doc["state"] == state:
            return doc
        if status == 200 and doc["state"] in TERMINAL:
            raise AssertionError(f"job {job_id} ended {doc['state']} waiting for {state}")
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {state}: {doc}")


def list_jobs(server: ServerProcess) -> list[dict]:
    status, payload = server.get_json("/api/v1/jobs")
    assert status == 200
    return payload["jobs"]


def caps_page_bytes(server: ServerProcess, result_key: str, limit: int = 1000) -> bytes:
    """The raw CAP-page body — the byte-identity assertion's subject."""
    status, body = server.request(
        "GET", f"/api/v1/results/{result_key}/caps?limit={limit}"
    )
    assert status == 200, status
    return body


def read_exec_log(path: Path) -> list[tuple[str, str, int]]:
    """Parsed ``(job_id, worker_id, attempt)`` execution-audit entries."""
    if not Path(path).exists():
        return []
    entries = []
    for line in Path(path).read_text().splitlines():
        job_id, worker, attempt = line.split()
        entries.append((job_id, worker, int(attempt.split("=")[1])))
    return entries


def wait_for_exec_entries(
    path: Path, job_id: str, count: int = 1, timeout: float = REQUEST_TIMEOUT
) -> list[tuple[str, str, int]]:
    """Wait until the audit log shows ``count`` executions of one job.

    Kills that should interrupt a *started* execution must synchronize on
    the log line, not on the job's API state: the ``running`` transition
    becomes visible a hair before the worker writes its audit entry, and a
    ``SIGKILL`` landing in that gap would make the expected attempt
    invisible.
    """
    deadline = time.monotonic() + timeout
    entries: list[tuple[str, str, int]] = []
    while time.monotonic() < deadline:
        entries = [e for e in read_exec_log(path) if e[0] == job_id]
        if len(entries) >= count:
            return entries
        time.sleep(0.02)
    raise AssertionError(f"only {len(entries)} execution(s) of {job_id} logged")


def reference_caps_bytes(dataset, params_doc: dict, limit: int = 1000) -> bytes:
    """The ground-truth CAP page: a clean in-process mine of the same
    (dataset, parameters), rendered through the same v1 endpoint."""
    from repro.server.app import TestClient, create_app

    app = create_app(job_workers=1)
    try:
        client = TestClient(app)
        assert client.upload_dataset(dataset).status == 201
        created = client.post(
            f"/api/v1/datasets/{dataset.name}/results",
            json_body={"parameters": params_doc},
        )
        assert created.status == 201, created.json()
        key = created.json()["key"]
        page = client.get(f"/api/v1/results/{key}/caps?limit={limit}")
        assert page.status == 200
        return page.body
    finally:
        app.close()


def scripted_mine(dataset, params, control, *, steps=0, delay=0.0, gate=None):
    """A whole-mine body that async jobs run in their worker process.

    Lives in this plain module, which the worker imports by name to
    unpickle it (a conftest's module name is pytest's own).

    Reports ``steps`` progress ticks, each after a checkpoint and before a
    ``delay``-second pause; with ``gate`` (a file path) it then waits,
    checkpointing, until that file exists.  The result has no CAPs.
    """
    for step in range(1, steps + 1):
        control.checkpoint()
        control.report(step, steps)
        time.sleep(delay)
    while gate is not None and not os.path.exists(gate):
        control.checkpoint()
        time.sleep(0.01)
    control.checkpoint()
    return result_to_columns(
        MiningResult(dataset_name=dataset.name, parameters=params, caps=[])
    )
