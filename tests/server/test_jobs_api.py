"""Async mining over the API: submit → poll → result parity, cancellation.

The contract under test is the ISSUE-3 acceptance criteria: while an async
mine runs, status polls and visualization requests are answered; progress
only ever grows, ending at 1.0; and the completed job's result resource is
the one a sync mine of the same (dataset, parameters) answers with, its CAP
pages byte-identical to a direct mine.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.jobs import TERMINAL_STATES
from repro.server.app import TestClient, create_app
from tests.conftest import mine_v1, result_caps

PARAMS = recommended_parameters("santander").to_document()
TIMEOUT = 60.0
API = "/api/v1"


@pytest.fixture
def dataset():
    return generate_santander(seed=2, neighbourhoods=4, steps=240)


@pytest.fixture
def client(dataset):
    app = create_app()
    client = TestClient(app)
    response = client.upload_dataset(dataset, chunk_lines=1000)
    assert response.status == 201, response.json()
    yield client
    app.close()


def submit_async(client, params=PARAMS) -> str:
    response = mine_v1(client, "santander", params, mode="async")
    assert response.status == 202, response.json()
    payload = response.json()
    assert payload["job_id"]
    return payload["job_id"]


def poll_until_terminal(client, job_id: str, timeout: float = TIMEOUT) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.get(f"{API}/jobs/{job_id}").json()
        if doc["state"] in TERMINAL_STATES:
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {doc['state']} after {timeout}s")


def wait_until_mining(client, job_id: str, timeout: float = TIMEOUT) -> dict:
    """The job once its worker reported a first progress tick."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.get(f"{API}/jobs/{job_id}").json()
        if doc["state"] == "running" and doc["progress"] > 0:
            return doc
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reported progress: {doc}")


class TestSubmitPollResult:
    def test_async_result_matches_sync_byte_for_byte(self, client, dataset):
        job_id = submit_async(client)
        final = poll_until_terminal(client, job_id)
        assert final["state"] == "succeeded", final.get("error")
        assert final["progress"] == 1.0
        assert final["links"]["result"] == f"{API}/results/{final['result_key']}"
        sync = mine_v1(client, "santander", PARAMS)
        assert sync.status == 201
        assert sync.json()["key"] == final["result_key"]
        assert sync.json()["from_cache"] is True
        direct = MiscelaMiner(MiningParameters.from_document(PARAMS)).mine(dataset)
        caps = result_caps(client, final["result_key"])
        assert json.dumps(caps, sort_keys=True) == json.dumps(
            [cap.to_document() for cap in direct.caps], sort_keys=True
        )
        assert caps

    def test_async_result_lands_in_the_shared_cache(self, client):
        job_id = submit_async(client)
        final = poll_until_terminal(client, job_id)
        # The result listing and map-click lookup see the async CAPs
        # exactly as if they had been mined synchronously.
        listing = client.get(f"{API}/datasets/santander/results").json()
        assert len(listing["results"]) == 1
        sensor = result_caps(client, final["result_key"])[0]["sensors"][0]
        clicked = client.get(f"{API}/datasets/santander/sensors/{sensor}/correlated")
        assert clicked.status == 200
        assert clicked.json()["correlated"]

    def test_progress_is_monotone_and_completes(self, client, worker_mine):
        worker_mine(steps=12, delay=0.01)
        job_id = submit_async(client)
        seen: list[float] = []
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            doc = client.get(f"{API}/jobs/{job_id}").json()
            seen.append(doc["progress"])
            if doc["state"] in TERMINAL_STATES:
                break
            time.sleep(0.01)
        assert doc["state"] == "succeeded"
        assert seen == sorted(seen), f"progress regressed: {seen}"
        assert seen[-1] == 1.0
        assert len(set(seen)) > 2  # actually observed intermediate fractions

    def test_submit_returns_before_mining_finishes(self, client, worker_mine):
        worker_mine(steps=200, delay=0.05)
        started = time.perf_counter()
        job_id = submit_async(client)
        submit_latency = time.perf_counter() - started
        assert submit_latency < 2.0  # 202 comes back immediately, not after 10s
        doc = client.get(f"{API}/jobs/{job_id}").json()
        assert doc["state"] in ("queued", "running")
        # Interactive endpoints answer while the mine is in flight.
        assert client.get(f"{API}/datasets/santander/viz/map").status == 200
        assert client.get(f"{API}/admin/stats").json()["jobs"]["running"] == 1
        assert client.post(f"{API}/jobs/{job_id}/cancel").status == 200
        assert poll_until_terminal(client, job_id)["state"] == "cancelled"

    def test_sync_mode_unchanged(self, client):
        response = mine_v1(client, "santander", PARAMS)
        assert response.status == 201
        payload = response.json()
        assert payload["num_caps"] == len(result_caps(client, payload["key"])) > 0
        assert not payload["from_cache"]

    def test_bad_mode_rejected(self, client):
        response = mine_v1(client, "santander", PARAMS, mode="nope")
        assert response.status == 400

    @pytest.mark.parametrize("plan_workers", [True, 0, 65])
    def test_bad_plan_workers_rejected(self, client, plan_workers):
        """JSON ``true`` is no planning width (bool is an int in Python), and
        the width is bounded by ``PLAN_WORKERS_MAX``."""
        response = mine_v1(
            client, "santander", PARAMS, mode="distributed", plan_workers=plan_workers
        )
        assert response.status == 400, response.json()
        error = response.json()["error"]
        assert error["code"] == "bad_plan_workers"
        assert "from 1 to 64" in error["message"]
        assert client.get(f"{API}/jobs").json()["jobs"] == []

    def test_plan_workers_at_the_maximum_accepted(self, client):
        response = mine_v1(
            client, "santander", PARAMS, mode="distributed", plan_workers=64
        )
        assert response.status == 202, response.json()
        final = poll_until_terminal(client, response.json()["job_id"])
        assert final["state"] == "succeeded", final

    def test_unknown_dataset_rejected_at_submit(self, client):
        response = mine_v1(client, "ghost", PARAMS, mode="async")
        assert response.status == 404

    def test_direction_aware_delayed_rejected_in_every_mode(self, client):
        """Direction-aware delayed search is not implemented: every mode
        answers 400 up front, opens no job and caches nothing — before, a
        sync POST was a 500 while async served direction-blind CAPs."""
        params = dict(
            PARAMS, max_delay=1, direction_aware=True, segmentation="none"
        )
        for mode in ("sync", "async", "distributed", "streaming"):
            response = mine_v1(client, "santander", params, mode=mode)
            assert response.status == 400, (mode, response.json())
            assert response.json()["error"]["code"] == "invalid_parameters"
        listing = client.get(f"{API}/datasets/santander/results").json()
        assert listing["results"] == []
        assert client.get(f"{API}/jobs").json()["jobs"] == []


class TestDedup:
    def test_identical_inflight_submission_reuses_job(self, client, worker_mine):
        worker_mine(steps=200, delay=0.05)
        first = submit_async(client)
        response = mine_v1(client, "santander", PARAMS, mode="async")
        assert response.status == 202
        assert response.json()["job_id"] == first
        assert response.json()["deduplicated"] is True
        # n_jobs is an execution knob, not an identity: it must dedup too.
        tweaked = dict(PARAMS, n_jobs=4)
        again = mine_v1(client, "santander", tweaked, mode="async")
        assert again.json()["job_id"] == first
        # Different parameters are a different job.
        other = mine_v1(
            client, "santander",
            dict(PARAMS, min_support=PARAMS["min_support"] + 1), mode="async",
        )
        assert other.json()["job_id"] != first
        client.post(f"{API}/jobs/{first}/cancel")
        client.post(f"{API}/jobs/{other.json()['job_id']}/cancel")

    def test_resubmit_after_completion_is_instant_cache_hit(self, client):
        first = submit_async(client)
        key = poll_until_terminal(client, first)["result_key"]
        hits = client.get(f"{API}/admin/stats").json()["cache"]["hits"]
        second = submit_async(client)
        assert second != first
        final = poll_until_terminal(client, second)
        assert final["state"] == "succeeded"
        assert final["result_key"] == key
        assert client.get(f"{API}/admin/stats").json()["cache"]["hits"] == hits + 1


class TestCancellation:
    def test_cancel_mid_run(self, client, worker_mine):
        worker_mine(steps=400, delay=0.05)
        job_id = submit_async(client)
        wait_until_mining(client, job_id)
        response = client.post(f"{API}/jobs/{job_id}/cancel")
        assert response.status == 200
        assert response.json()["cancel_requested"] is True
        final = poll_until_terminal(client, job_id)
        assert final["state"] == "cancelled"
        assert final["progress"] < 1.0
        assert final["error"] is None
        assert final["result_key"] is None
        assert "result" not in final["links"]
        # A cancelled run stored nothing: sync mining still has to compute.
        assert client.get(f"{API}/datasets/santander/results").json()["results"] == []

    def test_reupload_during_inflight_job_withdraws_the_result(
        self, client, dataset, worker_mine
    ):
        """A job mining replaced data must not publish: the re-upload
        cancels it, and even a photo-finish result is withdrawn."""
        worker_mine(steps=400, delay=0.05)
        job_id = submit_async(client)
        wait_until_mining(client, job_id)
        assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
        final = poll_until_terminal(client, job_id)
        assert final["state"] == "cancelled"
        assert client.get(f"{API}/datasets/santander/results").json()["results"] == []

    def test_reupload_during_sync_mine_refuses_the_result(
        self, client, monkeypatch
    ):
        """A sync mine of replaced data stores nothing: the re-upload lands
        after the mine computed, and the publish is refused with 409."""
        replacement = generate_santander(seed=3, neighbourhoods=4, steps=240)
        mine = MiscelaMiner.mine

        def mine_then_reupload(miner, dataset, control=None):
            result = mine(miner, dataset, control=control)
            assert client.upload_dataset(replacement, chunk_lines=1000).status == 201
            return result

        monkeypatch.setattr(MiscelaMiner, "mine", mine_then_reupload)
        refused = mine_v1(client, "santander", PARAMS)
        assert refused.status == 409
        assert refused.json()["error"]["code"] == "dataset_replaced"
        assert client.get(f"{API}/datasets/santander/results").json()["results"] == []

        monkeypatch.setattr(MiscelaMiner, "mine", mine)
        fresh = mine_v1(client, "santander", PARAMS)
        assert fresh.status == 201
        assert fresh.json()["from_cache"] is False
        direct = MiscelaMiner(MiningParameters.from_document(PARAMS)).mine(replacement)
        assert json.dumps(result_caps(client, fresh.json()["key"]), sort_keys=True) == (
            json.dumps([cap.to_document() for cap in direct.caps], sort_keys=True)
        )

    def test_cancel_unknown_job_404(self, client):
        assert client.post(f"{API}/jobs/job-0099-missing/cancel").status == 404

    def test_cancel_finished_job_409(self, client):
        job_id = submit_async(client)
        poll_until_terminal(client, job_id)
        assert client.post(f"{API}/jobs/{job_id}/cancel").status == 409


class TestJobListing:
    def test_listing_and_status_filter(self, client):
        job_id = submit_async(client)
        poll_until_terminal(client, job_id)
        everything = client.get(f"{API}/jobs").json()["jobs"]
        assert [job["job_id"] for job in everything] == [job_id]
        assert "caps" not in everything[0]  # listings stay light
        done = client.get(f"{API}/jobs?status=succeeded").json()["jobs"]
        assert [job["job_id"] for job in done] == [job_id]
        assert client.get(f"{API}/jobs?status=queued").json()["jobs"] == []
        assert client.get(f"{API}/jobs?status=bogus").status == 400

    def test_unknown_job_404(self, client):
        assert client.get(f"{API}/jobs/job-0042-nothing").status == 404

    def test_admin_stats_counters(self, client):
        stats = client.get(f"{API}/admin/stats").json()["jobs"]
        assert stats["total"] == 0
        assert stats["executor_width"] == 2
        job_id = submit_async(client)
        poll_until_terminal(client, job_id)
        stats = client.get(f"{API}/admin/stats").json()["jobs"]
        assert stats["succeeded"] == 1
        assert stats["total"] == 1


class TestThreadedServer:
    """Over real sockets: the ThreadingMixIn server answers during a mine."""

    def test_polls_served_while_async_mine_runs(self, dataset, worker_mine):
        import urllib.request

        from repro.server.app import create_app
        from repro.server.http import make_threaded_server, wsgi_adapter

        app = create_app()
        client = TestClient(app)
        assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
        worker_mine(steps=400, delay=0.05)

        server = make_threaded_server("127.0.0.1", 0, wsgi_adapter(app))
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def fetch(method: str, path: str, body: dict | None = None):
            request = urllib.request.Request(f"{base}{path}", method=method)
            data = None
            if body is not None:
                data = json.dumps(body).encode()
                request.add_header("Content-Type", "application/json")
            with urllib.request.urlopen(request, data=data, timeout=10) as resp:
                return resp.status, json.loads(resp.read() or b"null")

        try:
            status, payload = fetch(
                "POST", f"{API}/datasets/santander/results",
                {"parameters": PARAMS, "mode": "async"},
            )
            assert status == 202
            job_id = payload["job_id"]
            wait_until_mining(client, job_id)
            # While the mine runs, polls and admin calls are served promptly.
            for _ in range(3):
                t0 = time.perf_counter()
                status, doc = fetch("GET", f"{API}/jobs/{job_id}")
                assert status == 200 and doc["state"] == "running"
                assert time.perf_counter() - t0 < 5.0
            status, stats = fetch("GET", f"{API}/admin/stats")
            assert stats["jobs"]["running"] == 1
            status, cancelled = fetch("POST", f"{API}/jobs/{job_id}/cancel")
            assert status == 200
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                _, doc = fetch("GET", f"{API}/jobs/{job_id}")
                if doc["state"] in TERMINAL_STATES:
                    break
                time.sleep(0.05)
            assert doc["state"] == "cancelled"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            app.close()


class TestEvictedJobRedirect:
    """Terminal-job eviction must not strand issued job Location links:
    an evicted succeeded job answers 301 at its surviving result resource."""

    def evict_first_of_three(self, client):
        app_state = client.app.state
        app_state.jobs.store._terminal_capacity = 1
        job_ids, keys = [], []
        for support in (10, 5, 2):
            params = dict(PARAMS, min_support=support)
            job_id = submit_async(client, params)
            final = poll_until_terminal(client, job_id)
            assert final["state"] == "succeeded"
            job_ids.append(job_id)
            keys.append(final["result_key"])
        # The third submission's open_job pruned the first finished job.
        assert client.get(f"/api/v1/jobs/{job_ids[1]}").status in (200, 301)
        return job_ids, keys

    def test_evicted_job_redirects_to_result(self, client):
        job_ids, keys = self.evict_first_of_three(client)
        response = client.get(f"{API}/jobs/{job_ids[0]}")
        assert response.status == 301, response.json()
        assert response.headers["Location"] == f"/api/v1/results/{keys[0]}"
        assert response.json()["result_key"] == keys[0]
        # The redirect target still serves the result metadata.
        target = client.get(f"/api/v1/results/{keys[0]}")
        assert target.status == 200
        assert target.json()["key"] == keys[0]

    def test_redirect_gone_once_result_deleted(self, client):
        job_ids, keys = self.evict_first_of_three(client)
        assert client.delete(f"/api/v1/results/{keys[0]}").status == 204
        assert client.get(f"/api/v1/jobs/{job_ids[0]}").status == 404

    def test_unknown_job_still_404s(self, client):
        assert client.get("/api/v1/jobs/job-9999-nope").status == 404


class TestPathLessRegistry:
    """A path-less app runs the one job registry in memory: distributed
    mines and resident stream jobs are accepted there too."""

    def test_distributed_mine_matches_a_direct_mine(self, client, dataset):
        response = mine_v1(client, "santander", PARAMS, mode="distributed")
        assert response.status == 202, response.json()
        final = poll_until_terminal(client, response.json()["job_id"])
        assert final["state"] == "succeeded", final
        assert final["merge"]["state"] == "succeeded"
        direct = MiscelaMiner(MiningParameters.from_document(PARAMS)).mine(dataset)
        caps = result_caps(client, final["result_key"])
        assert json.dumps(caps, sort_keys=True) == json.dumps(
            [cap.to_document() for cap in direct.caps], sort_keys=True
        )
        assert caps

    def test_streaming_mode_opens_a_resident_job(self, client):
        params = dict(PARAMS, segmentation="none")
        response = mine_v1(client, "santander", params, mode="streaming")
        assert response.status == 202, response.json()
        job = client.get(f"{API}/jobs/{response.json()['job_id']}").json()
        assert job["kind"] == "stream"

    def test_released_stream_job_mines_a_later_batch(self, dataset):
        """The resident miner rests between claims; a batch appended while
        it rests is still mined and lands on the feed."""
        app = create_app(worker_poll=0.2)
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            params = dict(PARAMS, segmentation="none")
            response = mine_v1(client, "santander", params, mode="streaming")
            assert response.status == 202, response.json()
            job_id = response.json()["job_id"]

            def released() -> bool:
                job = client.get(f"{API}/jobs/{job_id}").json()
                return job["attempt"] >= 1 and job["state"] == "queued"

            wait_for(released, "the stream job never went idle and released its claim")
            step = dataset.timeline[1] - dataset.timeline[0]
            start = dataset.timeline[-1] + step
            # Every sensor steps up at the batch's second timestamp: a
            # co-evolution the baseline has not seen.
            series = {
                sid: [float(dataset.values(sid)[-1]) + (5.0 if i else 0.0)
                      for i in range(3)]
                for sid in dataset.sensor_ids
            }
            batch = {"timeline": [(start + i * step).isoformat() for i in range(3)],
                     "series": series}
            receipt = client.post(
                f"{API}/datasets/santander/observations", json_body=batch
            )
            assert receipt.status == 202, receipt.json()
            feed = {}

            def epoch_on_feed() -> bool:
                feed.update(client.get(f"{API}/datasets/santander/events?cursor=0").json())
                return any(event["epoch"] == 1 for event in feed["events"])

            wait_for(epoch_on_feed, "the appended batch never reached the feed")
            assert feed["cursor"] > 0
        finally:
            app.close(wait=True)

    def test_submission_starts_without_waiting_for_a_beat(self, dataset):
        """A local submission wakes an idle claim loop: the mine finishes
        long before the 30 s poll beat would have found it."""
        app = create_app(worker_poll=30.0)
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            job_id = submit_async(client)
            final = poll_until_terminal(client, job_id, timeout=10.0)
            assert final["state"] == "succeeded", final
        finally:
            app.close(wait=True)


def wait_for(predicate, message: str, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)
