"""Stream recovery matrix: the resident miner survives kill -9.

The acceptance criterion: after a SIGKILL lands on the process hosting
the streaming job, a fresh process on the same store resumes from the
persisted high-water mark and the feed ends up with no lost and no
duplicated ``cap_events`` — seq stays gap-free and strictly monotone.
"""

from __future__ import annotations

import time

import repro.stream.runner as stream_runner
from repro.core.parallel import MiningCancelled
from repro.server.app import TestClient, create_app
from repro.store.database import Database
from repro.stream import ALERTS, CAP_EVENTS, STREAM_STATE, StreamSession

from tests.jobs.harness import ServerProcess, upload_dataset
from tests.stream.test_stream_e2e import (
    PARAMS,
    RULE,
    BatchFeeder,
    append,
    poll_events,
)


def test_stream_job_resumes_after_kill9(tmp_path, tiny_dataset):
    store = tmp_path / "db.json"
    feeder = BatchFeeder(tiny_dataset)

    server = ServerProcess(store, lease_seconds=1.0, worker_poll=0.2,
                           worker_id="first")
    try:
        upload_dataset(server, tiny_dataset)
        status, _ = server.post_json("/api/v1/datasets/tiny/alert-rules",
                                     json_body=RULE)
        assert status == 201
        status, job = server.post_json(
            "/api/v1/datasets/tiny/results",
            json_body={"parameters": PARAMS, "mode": "streaming"},
        )
        assert status == 202
        job_id = job["job_id"]

        append(server, "tiny", feeder.batch({"a", "b"}))
        page = poll_events(server, "tiny", 0, expect=1)
        assert [(e["seq"], e["type"]) for e in page["events"]] == [(1, "extended")]
    finally:
        server.kill()  # SIGKILL: no release, no snapshot, lease left lapsed

    survivor = ServerProcess(store, lease_seconds=1.0, worker_poll=0.2,
                             worker_id="second")
    try:
        # The reclaimed session replays epoch 1 from the observation log,
        # then drains the new epoch appended through the new process.
        append(survivor, "tiny", feeder.batch({"c", "d"}))
        page = poll_events(survivor, "tiny", 1, expect=1)
        assert [(e["seq"], e["type"]) for e in page["events"]] == [(2, "new")]
        assert page["events"][0]["cap"]["sensors"] == ["c", "d"]

        # The whole feed: gap-free, strictly monotone, one event per epoch,
        # no duplicate ids — epoch 1 was not re-emitted by the replay.
        status, replay = survivor.get_json("/api/v1/datasets/tiny/events?cursor=0")
        assert status == 200
        events = replay["events"]
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["epoch"] for e in events] == [1, 2]
        assert len({e["event_id"] for e in events}) == 2

        # Alerts fired exactly once per matching event across both lives.
        status, alerts = survivor.get_json("/api/v1/datasets/tiny/alerts")
        assert status == 200
        assert sorted(a["seq"] for a in alerts["alerts"]) == [1, 2]
        assert len({a["alert_id"] for a in alerts["alerts"]}) == 2

        # The resident job itself is alive in the surviving process.
        status, doc = survivor.get_json(f"/api/v1/jobs/{job_id}")
        assert status == 200 and doc["state"] in ("queued", "running")
        assert doc["kind"] == "stream"
    finally:
        survivor.kill()


def test_stream_state_purged_by_reupload(tmp_path, tiny_dataset):
    """A destructive re-upload resets the stream: epoch back to 0, feed
    emptied, but alert rules survive as monitoring intent."""
    store = tmp_path / "db.json"
    with ServerProcess(store, lease_seconds=1.0, worker_poll=0.2) as server:
        upload_dataset(server, tiny_dataset)
        status, _ = server.post_json("/api/v1/datasets/tiny/alert-rules",
                                     json_body=RULE)
        assert status == 201
        status, _ = server.post_json(
            "/api/v1/datasets/tiny/results",
            json_body={"parameters": PARAMS, "mode": "streaming"},
        )
        assert status == 202
        feeder = BatchFeeder(tiny_dataset)
        append(server, "tiny", feeder.batch({"a", "b"}))
        poll_events(server, "tiny", 0, expect=1)

        upload_dataset(server, tiny_dataset)  # destructive re-upload

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, page = server.get_json("/api/v1/datasets/tiny/events?cursor=0")
            assert status == 200
            if page["events"] == []:
                break
            time.sleep(0.1)
        assert page["events"] == [] and page["latest_seq"] == 0

        # Fresh stream epoch: the grid continues the *base* dataset again.
        fresh = BatchFeeder(tiny_dataset)
        receipt = append(server, "tiny", fresh.batch(set()))
        assert receipt["epoch"] == 1

        status, listing = server.get_json("/api/v1/datasets/tiny/alert-rules")
        assert status == 200
        assert [r["rule_id"] for r in listing["rules"]] == ["co-move"]


def test_reupload_mid_epoch_commits_nothing(tmp_path, tiny_dataset, monkeypatch):
    """A re-upload landing while the resident miner diffs an epoch: the
    epoch commit is refused, so the new generation's feed starts empty."""
    app = create_app(Database(tmp_path / "db.json"))
    client = TestClient(app)
    raised: list[BaseException] = []
    process_epoch = StreamSession.process_epoch
    diff_caps = stream_runner.diff_caps

    def recording(session, epoch, **kwargs):
        try:
            return process_epoch(session, epoch, **kwargs)
        except BaseException as exc:
            raised.append(exc)
            raise

    def diff_then_reupload(before, after):
        assert client.upload_dataset(tiny_dataset).status == 201
        return diff_caps(before, after)

    try:
        assert client.upload_dataset(tiny_dataset).status == 201
        assert client.post("/api/v1/datasets/tiny/alert-rules",
                           json_body=RULE).status == 201
        assert client.post("/api/v1/datasets/tiny/observations",
                           json_body=BatchFeeder(tiny_dataset).batch({"a", "b"}),
                           ).status == 202
        monkeypatch.setattr(StreamSession, "process_epoch", recording)
        monkeypatch.setattr(stream_runner, "diff_caps", diff_then_reupload)
        opened = client.post("/api/v1/datasets/tiny/results",
                             json_body={"parameters": PARAMS, "mode": "streaming"})
        assert opened.status == 202
        job_url = opened.headers["Location"]
        deadline = time.monotonic() + 30.0
        while client.get(job_url).json()["state"] != "cancelled":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert [type(exc) for exc in raised] == [MiningCancelled]
        database = app.state.database
        assert database[CAP_EVENTS].find({"dataset": "tiny"}) == []
        assert database[ALERTS].find({"dataset": "tiny"}) == []
        assert database[STREAM_STATE].find({"name": "tiny"}) == []
    finally:
        app.close()
