"""Stream retention: bounded feeds, horizon cursors, and windowed replay.

The acceptance criteria from the issue, layer by layer:

* **horizon math + feed-size bound** — after a fold ``cap_events`` holds
  at most ``retention_seqs`` documents and the snapshot's
  ``first_live_seq`` is authoritative;
* **cursor contract** — a cursor exactly at ``first_live_seq - 1``
  replays a byte-identical live tail; one below it answers a structured
  ``410 cursor_expired`` carrying ``first_live_seq`` and a usable
  snapshot link; an expired SSE ``Last-Event-ID`` bootstraps from one
  ``event: snapshot`` frame instead of erroring;
* **windowed replay** (property) — a session
  rebuilt after observation trimming replays only post-watermark epochs
  yet keeps mining byte-identical CAP documents and events;
* **crash convergence** — ``kill -9`` (exit 72 via ``REPRO_STREAM_FAULT``)
  at each point of the three-step fold leaves a state the restarted
  sweep converges from (see the matrix at the bottom).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from datetime import datetime

import pytest

from repro.cache.keys import cache_key
from repro.core.parameters import MiningParameters
from repro.store.database import Database
from repro.stream import (
    ALERTS,
    CAP_EVENTS,
    OBSERVATIONS,
    RetentionError,
    StreamSession,
    append_batch,
    compact_feed,
    compact_observations,
    current_epoch,
    feed_snapshot,
    first_live_seq,
    get_retention,
    read_events,
    set_retention,
    stream_state,
    sweep_retention,
    validate_rule,
)
from repro.stream.retention import FAULT_EXIT_CODE, FAULT_POINTS
from tests.jobs.harness import SRC_DIR, ServerProcess, upload_dataset
from tests.stream.test_stream_e2e import PARAMS, BatchFeeder, append, poll_events


def make_params() -> MiningParameters:
    return MiningParameters(
        evolving_rate=1.0,
        distance_threshold=2.0,
        max_attributes=3,
        min_support=3,
    )


def next_batch(dataset, database, levels, jump_sensors, length=3, jump=5.0):
    """The next on-grid batch (same engineering as the unit suite)."""
    _, last = current_epoch(database, dataset.name)
    interval = dataset.timeline[1] - dataset.timeline[0]
    start = (
        datetime.fromisoformat(last) if last else dataset.timeline[-1]
    ) + interval
    timeline = [(start + i * interval).isoformat() for i in range(length)]
    series = {}
    for sid in dataset.sensor_ids:
        row = []
        for i in range(length):
            if i == 1 and sid in jump_sensors:
                levels[sid] += jump
            row.append(levels[sid])
        series[sid] = row
    return {"timeline": timeline, "series": series}


def start_levels(dataset) -> dict[str, float]:
    return {sid: float(dataset.values(sid)[-1]) for sid in dataset.sensor_ids}


#: Epoch jump scripts: each entry produces exactly one event (the flat set()
#: produces none), so seq positions are known by construction.
JUMPS = [{"a", "b"}, {"c", "d"}, set(), {"a", "b"}, {"c", "d"}, {"a", "b"}]


def drive(db, dataset, params, epochs, levels=None, session=None):
    """Run ``epochs`` jump scripts through one StreamSession."""
    key = cache_key(dataset.name, params)
    session = session or StreamSession(db, dataset, params, key)
    levels = levels if levels is not None else start_levels(dataset)
    start = session.mined_epoch + 1
    for offset, jumps in enumerate(epochs):
        append_batch(db, dataset, next_batch(dataset, db, levels, jumps))
        session.process_epoch(start + offset)
    return session, levels


def public_events(db, dataset_name):
    return [
        {k: v for k, v in row.items() if k != "_id"}
        for row in db.collection(CAP_EVENTS).find(
            {"dataset": dataset_name}, sort="seq"
        )
    ]


class TestRetentionConfig:
    def test_defaults_off_and_server_default_merges(self):
        db = Database()
        assert get_retention(db, "tiny") == {
            "retention_seqs": None, "retention_seconds": None,
        }
        merged = get_retention(db, "tiny", default={"retention_seqs": 9})
        assert merged["retention_seqs"] == 9

    def test_patch_merge_semantics(self):
        db = Database()
        set_retention(db, "tiny", {"retention_seqs": 5})
        set_retention(db, "tiny", {"retention_seconds": 60.0})
        config = get_retention(db, "tiny")
        assert config["retention_seqs"] == 5  # first key survived the second PATCH
        assert config["retention_seconds"] == 60.0
        set_retention(db, "tiny", {"retention_seqs": None})  # null clears
        assert get_retention(db, "tiny")["retention_seqs"] is None

    def test_dataset_config_overrides_server_default(self):
        db = Database()
        set_retention(db, "tiny", {"retention_seqs": 2})
        assert get_retention(db, "tiny", default={"retention_seqs": 50})[
            "retention_seqs"
        ] == 2

    @pytest.mark.parametrize("payload,match", [
        ("nope", "JSON object"),
        ({"bogus": 1}, "unknown retention keys"),
        ({"retention_seqs": 0}, "positive integer"),
        ({"retention_seqs": True}, "positive integer"),
        ({"retention_seqs": 2.5}, "positive integer"),
        ({"retention_seconds": -1}, "positive number"),
        ({"retention_seconds": True}, "positive number"),
    ])
    def test_invalid_configs_rejected(self, payload, match):
        with pytest.raises(RetentionError, match=match):
            set_retention(Database(), "tiny", payload)


class TestCompactFeed:
    def test_fold_bounds_feed_and_is_idempotent(self, tiny_dataset):
        db = Database()
        params = make_params()
        drive(db, tiny_dataset, params, JUMPS)
        assert len(public_events(db, "tiny")) == 5
        config = set_retention(db, "tiny", {"retention_seqs": 2})
        report = compact_feed(db, "tiny", config)
        assert report["compacted"] is True
        # The feed-size assertion: at most retention_seqs live events.
        live = public_events(db, "tiny")
        assert len(live) <= 2
        assert [e["seq"] for e in live] == [4, 5]
        assert first_live_seq(db, "tiny") == 4
        state = stream_state(db, "tiny")
        assert state["horizon_seq"] == 4
        # Idempotent: nothing left to fold at the same horizon.
        again = compact_feed(db, "tiny", config)
        assert again["compacted"] is False
        assert first_live_seq(db, "tiny") == 4

    def test_snapshot_carries_cap_state_and_invariants(self, tiny_dataset):
        db = Database()
        session, _ = drive(db, tiny_dataset, make_params(), JUMPS)
        compact_feed(db, "tiny", {"retention_seqs": 1})
        snap = feed_snapshot(db, "tiny")
        assert snap["first_live_seq"] == 5
        assert snap["epoch"] == session.mined_epoch
        assert snap["caps"] == session.caps  # the folded CAP state
        # 1 <= horizon_seq <= first_live_seq <= latest_seq + 1
        state = stream_state(db, "tiny")
        latest = int(state["next_seq"]) - 1
        assert 1 <= state["horizon_seq"] <= snap["first_live_seq"] <= latest + 1

    def test_cursor_exactly_at_horizon_replays_identical_tail(self, tiny_dataset):
        db = Database()
        drive(db, tiny_dataset, make_params(), JUMPS)
        before = public_events(db, "tiny")
        compact_feed(db, "tiny", {"retention_seqs": 3})
        first_live = first_live_seq(db, "tiny")
        tail = read_events(db, "tiny", cursor=first_live - 1, limit=100)
        expected = [e for e in before if e["seq"] >= first_live]
        assert json.dumps(tail, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_fold_prunes_alerts_behind_horizon(self, tiny_dataset):
        db = Database()
        db.collection("alert_rules").insert_one(
            validate_rule("tiny", {
                "rule_id": "pair",
                "levels": [{"min_sensors": 2, "severity": "warning"}],
            })
        )
        drive(db, tiny_dataset, make_params(), JUMPS)
        assert len(db.collection(ALERTS).find({"dataset": "tiny"})) == 5
        report = compact_feed(db, "tiny", {"retention_seqs": 2})
        assert report["trimmed_alerts"] == 3
        left = db.collection(ALERTS).find({"dataset": "tiny"}, sort="seq")
        assert [row["seq"] for row in left] == [4, 5]

    def test_age_based_horizon(self, tiny_dataset):
        db = Database()
        clock = [1000.0]
        session = StreamSession(
            db, tiny_dataset, make_params(),
            cache_key("tiny", make_params()), clock=lambda: clock[0],
        )
        levels = start_levels(tiny_dataset)
        for i, jumps in enumerate(JUMPS, start=1):
            append_batch(db, tiny_dataset,
                         next_batch(tiny_dataset, db, levels, jumps))
            session.process_epoch(i)
            clock[0] += 100.0
        # Now 1600; keep events created within the last 250s -> the two
        # newest (created at 1400 and 1500) stay, the rest fold.
        report = compact_feed(
            db, "tiny", {"retention_seconds": 250.0}, clock=lambda: clock[0]
        )
        assert report["compacted"] is True
        assert [e["seq"] for e in public_events(db, "tiny")] == [4, 5]

    def test_sweep_skips_datasets_without_retention(self, tiny_dataset):
        db = Database()
        drive(db, tiny_dataset, make_params(), JUMPS[:2])
        assert sweep_retention(db) == []  # opt-in: nothing configured
        set_retention(db, "tiny", {"retention_seqs": 1})
        reports = sweep_retention(db)
        assert any(r["compacted"] for r in reports)
        assert len(public_events(db, "tiny")) <= 1


class TestWindowedReplay:
    def test_compacted_session_mines_byte_identical(self, tiny_dataset):
        """The property at the heart of windowed replay: a reference run
        that never compacts and a run that folds + trims mid-stream end
        with byte-identical CAP state and identical live events."""
        params = make_params()

        ref_db = Database()
        ref, _ = drive(ref_db, tiny_dataset, params, JUMPS)
        ref_events = public_events(ref_db, "tiny")

        db = Database()
        _, levels = drive(db, tiny_dataset, params, JUMPS[:4])
        config = set_retention(db, "tiny", {"retention_seqs": 1})
        assert compact_feed(db, "tiny", config)["compacted"] is True
        assert compact_observations(db, "tiny", config)["compacted"] is True
        assert db.collection(OBSERVATIONS).find({"dataset": "tiny"}) == []

        # Rebuild: the watermark checkpoint replaces the trimmed log.
        resumed = StreamSession(db, tiny_dataset, params,
                                cache_key("tiny", params))
        assert resumed.replayed_epochs == 0  # nothing past the watermark
        assert resumed.mined_epoch == 4
        drive(db, tiny_dataset, params, JUMPS[4:], levels=levels,
              session=resumed)

        assert json.dumps(resumed.caps, sort_keys=True) == json.dumps(
            ref.caps, sort_keys=True
        )
        got = public_events(db, "tiny")
        expected = [e for e in ref_events if e["seq"] >= got[0]["seq"]]
        for mine, reference in zip(got, expected):
            mine = {k: v for k, v in mine.items() if k != "created_at"}
            reference = {k: v for k, v in reference.items()
                         if k != "created_at"}
            assert json.dumps(mine, sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )
        assert len(got) == len(expected)

    def test_replay_window_covers_epochs_past_watermark_only(self, tiny_dataset):
        """Trim mid-history, keep later batches: the rebuild replays
        exactly the post-watermark epochs it still has batches for."""
        params = make_params()
        db = Database()
        session, levels = drive(db, tiny_dataset, params, JUMPS[:3])
        watermark_epoch = session.mined_epoch
        config = set_retention(db, "tiny", {"retention_seqs": 100})
        compact_observations(db, "tiny", config)
        # Two more epochs appended but only *ingested* (not mined) after
        # the trim, as if the resident worker died mid-stream.
        for jumps in JUMPS[3:5]:
            append_batch(db, tiny_dataset,
                         next_batch(tiny_dataset, db, levels, jumps))
        resumed = StreamSession(db, tiny_dataset, params,
                                cache_key("tiny", params))
        assert resumed.replayed_epochs == 0  # mined_epoch == watermark epoch
        assert resumed.mined_epoch == watermark_epoch
        resumed.process_epoch(4)
        resumed.process_epoch(5)
        assert [e["epoch"] for e in public_events(db, "tiny")] == [1, 2, 4, 5]

    def test_observation_trim_respects_age_gate(self, tiny_dataset):
        params = make_params()
        db = Database()
        clock = [1000.0]
        session = StreamSession(db, tiny_dataset, params,
                                cache_key("tiny", params),
                                clock=lambda: clock[0])
        levels = start_levels(tiny_dataset)
        for i, jumps in enumerate(JUMPS[:4], start=1):
            append_batch(db, tiny_dataset,
                         next_batch(tiny_dataset, db, levels, jumps),
                         clock=lambda: clock[0])
            session.process_epoch(i)
            clock[0] += 100.0
        # Watermark covers epoch 4, but the age gate (250s at t=1400)
        # only retires batches appended before 1150 -> epochs 1..2.
        report = compact_observations(
            db, "tiny", {"retention_seconds": 250.0}, clock=lambda: clock[0]
        )
        assert report["compacted"] is True and report["compacted_epoch"] == 2
        left = sorted(r["epoch"] for r in
                      db.collection(OBSERVATIONS).find({"dataset": "tiny"}))
        assert left == [3, 4]


class TestRetentionHTTP:
    """The cursor contract over the v1 API (in-process TestClient)."""

    @pytest.fixture
    def served(self, tiny_dataset):
        from repro.server.app import TestClient, create_app

        app = create_app(job_workers=1)
        client = TestClient(app)
        assert client.upload_dataset(tiny_dataset).status == 201
        params = make_params()
        # Drive the stream directly against the app's database — the
        # HTTP layer under test is the feed, not the job runner.
        drive(app.state.database, tiny_dataset, params, JUMPS)
        yield app, client
        app.close()

    def fold(self, app, keep=2):
        config = set_retention(app.state.database, "tiny",
                               {"retention_seqs": keep})
        report = compact_feed(app.state.database, "tiny", config)
        assert report["compacted"] is True
        return report["first_live_seq"]

    def test_expired_cursor_answers_410_envelope(self, served):
        app, client = served
        first_live = self.fold(app)
        response = client.get("/api/v1/datasets/tiny/events?cursor=0")
        assert response.status == 410
        error = response.json()["error"]
        assert error["code"] == "cursor_expired"
        detail = error["detail"]
        assert detail["first_live_seq"] == first_live
        assert detail["cursor"] == 0
        # The recovery link actually resolves.
        snapshot = client.get(detail["links"]["snapshot"])
        assert snapshot.status == 200
        assert snapshot.json()["first_live_seq"] == first_live

    def test_cursor_at_horizon_replays_tail(self, served):
        app, client = served
        before = client.get("/api/v1/datasets/tiny/events?cursor=0").json()
        first_live = self.fold(app)
        page = client.get(
            f"/api/v1/datasets/tiny/events?cursor={first_live - 1}"
        )
        assert page.status == 200
        body = page.json()
        assert body["first_live_seq"] == first_live
        expected = [e for e in before["events"] if e["seq"] >= first_live]
        assert json.dumps(body["events"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        # Cursors >= the horizon keep answering 200 (here: the tail's end).
        empty = client.get(
            f"/api/v1/datasets/tiny/events?cursor={body['latest_seq']}"
        )
        assert empty.status == 200 and empty.json()["events"] == []

    def test_snapshot_404_before_any_fold(self, served):
        _, client = served
        response = client.get("/api/v1/datasets/tiny/events/snapshot")
        assert response.status == 404
        assert response.json()["error"]["code"] == "no_snapshot"

    def test_sse_expired_last_event_id_bootstraps_from_snapshot(self, served):
        app, client = served
        first_live = self.fold(app)
        response = client.get(
            "/api/v1/datasets/tiny/events/stream",
            headers={"Last-Event-ID": "0"},
        )
        assert response.status == 200
        text = response.body.decode("utf-8")
        frames = [f for f in text.split("\n\n") if f.strip()]
        # Frame one is the snapshot, id'd at first_live - 1 so the
        # standard reconnect contract continues the live tail from it.
        assert frames[0].startswith(f"id: {first_live - 1}\nevent: snapshot\n")
        payload = json.loads(frames[0].split("data: ", 1)[1])
        assert payload["first_live_seq"] == first_live
        assert f"id: {first_live}\n" in text  # live tail follows
        # A live Last-Event-ID stays on the plain path: no snapshot frame.
        live = client.get(
            "/api/v1/datasets/tiny/events/stream",
            headers={"Last-Event-ID": str(first_live - 1)},
        )
        assert b"event: snapshot" not in live.body

    def test_stream_config_roundtrip_and_validation(self, served):
        _, client = served
        got = client.get("/api/v1/datasets/tiny/stream-config")
        assert got.status == 200
        assert got.json()["retention_seqs"] is None
        patched = client.request(
            "PATCH", "/api/v1/datasets/tiny/stream-config",
            json_body={"retention_seqs": 7},
        )
        assert patched.status == 200
        assert patched.json()["effective"]["retention_seqs"] == 7
        assert client.get(
            "/api/v1/datasets/tiny/stream-config"
        ).json()["retention_seqs"] == 7
        bad = client.request(
            "PATCH", "/api/v1/datasets/tiny/stream-config",
            json_body={"retention_seqs": -3},
        )
        assert bad.status == 400
        assert bad.json()["error"]["code"] == "invalid_retention"
        missing = client.request(
            "PATCH", "/api/v1/datasets/unknown/stream-config",
            json_body={"retention_seqs": 1},
        )
        assert missing.status == 404


# -- crash matrix -----------------------------------------------------------------


def converge_and_verify(store, tiny_dataset, feeder, *, expect_seqs):
    """Restart (no fault), let the sweep converge, verify the contract."""
    with ServerProcess(store, lease_seconds=1.0, worker_poll=0.2,
                       stream_retention=2, compact_seconds=0.3) as server:
        deadline = time.monotonic() + 60.0
        page = None
        while time.monotonic() < deadline:
            status, page = server.get_json(
                "/api/v1/datasets/tiny/events?cursor=0"
            )
            if status == 410:
                break
            time.sleep(0.2)
        assert status == 410, (status, page)
        detail = page["error"]["detail"]
        first_live = detail["first_live_seq"]
        assert first_live == expect_seqs[0]

        status, snap = server.get_json(detail["links"]["snapshot"])
        assert status == 200 and snap["first_live_seq"] == first_live

        status, tail = server.get_json(
            f"/api/v1/datasets/tiny/events?cursor={first_live - 1}"
        )
        assert status == 200
        assert [e["seq"] for e in tail["events"]] == expect_seqs

        # The resident miner keeps mining correctly from the folded state
        # (claim-time rebuild adopted the watermark over trimmed batches).
        append(server, "tiny", feeder.batch({"a", "b"}))
        page = poll_events(server, "tiny", expect_seqs[-1], expect=1)
        (event,) = page["events"]
        assert event["seq"] == expect_seqs[-1] + 1
        assert event["cap"]["sensors"] == ["a", "b"]
    return store


@pytest.mark.parametrize("fault_point", FAULT_POINTS)
def test_kill9_during_fold_converges(tmp_path, tiny_dataset, fault_point):
    store = tmp_path / "db.json"
    feeder = BatchFeeder(tiny_dataset)

    # Phase 1 — seed a known feed with retention OFF: four eventful
    # epochs, events seq 1..4 durable before any fold can run.
    with ServerProcess(store, lease_seconds=1.0, worker_poll=0.2) as server:
        upload_dataset(server, tiny_dataset)
        status, job = server.post_json(
            "/api/v1/datasets/tiny/results",
            json_body={"parameters": PARAMS, "mode": "streaming"},
        )
        assert status == 202, (status, job)
        for jumps in ({"a", "b"}, {"c", "d"}, {"a", "b"}, {"c", "d"}):
            append(server, "tiny", feeder.batch(jumps))
        poll_events(server, "tiny", 0, expect=4)

    # Phase 2 — retention on (keep newest 2) with the crash point armed:
    # the sweep starts the fold and hard-exits mid-protocol.
    server = ServerProcess(store, lease_seconds=1.0, worker_poll=0.2,
                           stream_retention=2, compact_seconds=0.3,
                           stream_fault=f"{fault_point}@tiny")
    try:
        assert server.wait_exit(timeout=60.0) == FAULT_EXIT_CODE
    finally:
        server.kill()

    # Each point fires once its fold's one commit is durable: the crash
    # lands after a whole fold, never inside one.
    state = Database(store)["stream_state"].find_one({"name": "tiny"})
    if fault_point == "after-observation-trim":
        assert state.get("compacted_epoch", 0) > 0
    else:
        assert state.get("horizon_seq") == 3

    # Whatever the crash left behind, the restarted sweep converges to
    # the same bounded feed, and the horizon cursor contract holds.
    converge_and_verify(store, tiny_dataset, feeder, expect_seqs=[3, 4])

    # Offline CLI agrees: an expired cursor resumes from the horizon
    # with an explicit notice, never a silently-short tail.
    env = {"PYTHONPATH": str(SRC_DIR)}
    tail = subprocess.run(
        [sys.executable, "-m", "repro.cli", "stream", "tail", "tiny",
         "--store", str(store), "--cursor", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert tail.returncode == 0, tail.stderr
    assert "retention horizon" in tail.stdout
