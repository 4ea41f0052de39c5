"""Live-server stream e2e: three batches through a real resident miner.

The acceptance path from the issue, over actual sockets and a real store:
upload -> open a streaming job -> register an alert rule -> append three
observation batches -> the feed shows the exact per-epoch CAP delta, a
stored cursor resumes mid-stream, the rule fires exactly once per
matching event, and the CLI can tail the feed afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from datetime import datetime, timedelta

import pytest

from tests.jobs.harness import SRC_DIR, ServerProcess, upload_dataset

PARAMS = {"evolving_rate": 1.0, "distance_threshold": 2.0,
          "max_attributes": 3, "min_support": 3}

RULE = {"rule_id": "co-move", "name": "Co-moving sensors",
        "event_types": ["new", "extended"],
        "levels": [{"min_sensors": 2, "severity": "warning"},
                   {"min_sensors": 3, "severity": "critical"}]}


class BatchFeeder:
    """Client-side batch builder that keeps the sampling grid and value
    levels continuous across batches (and across server restarts)."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.next_start = dataset.timeline[-1] + timedelta(hours=1)
        self.levels = {
            sid: float(dataset.values(sid)[-1]) for sid in dataset.sensor_ids
        }

    def batch(self, jump_sensors, length=3, jump=5.0):
        timeline = [
            (self.next_start + timedelta(hours=i)).isoformat()
            for i in range(length)
        ]
        self.next_start += timedelta(hours=length)
        series = {}
        for sid in self.dataset.sensor_ids:
            row = []
            for i in range(length):
                if i == 1 and sid in jump_sensors:
                    self.levels[sid] += jump
                row.append(self.levels[sid])
            series[sid] = row
        return {"timeline": timeline, "series": series}


def append(server: ServerProcess, name: str, batch: dict) -> dict:
    status, receipt = server.post_json(
        f"/api/v1/datasets/{name}/observations", json_body=batch
    )
    assert status == 202, (status, receipt)
    return receipt


def poll_events(server, name, cursor, *, expect, timeout=60.0):
    """Long-poll the feed until ``expect`` events past ``cursor`` arrive."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, page = server.get_json(
            f"/api/v1/datasets/{name}/events?cursor={cursor}&wait=10"
        )
        assert status == 200, (status, page)
        if len(page["events"]) >= expect:
            return page
        time.sleep(0.1)
    raise AssertionError(f"feed never showed {expect} events past {cursor}")


def test_live_stream_end_to_end(tmp_path, tiny_dataset):
    store = tmp_path / "db.json"
    with ServerProcess(store, lease_seconds=2.0, worker_poll=0.2) as server:
        upload_dataset(server, tiny_dataset)

        status, rule = server.post_json(
            "/api/v1/datasets/tiny/alert-rules", json_body=RULE
        )
        assert status == 201 and rule["replaced"] is False

        status, job = server.post_json(
            "/api/v1/datasets/tiny/results",
            json_body={"parameters": PARAMS, "mode": "streaming"},
        )
        assert status == 202, (status, job)
        assert job["kind"] == "stream" and job["deduplicated"] is False
        job_id = job["job_id"]

        # Resubmission dedups onto the live resident job.
        status, again = server.post_json(
            "/api/v1/datasets/tiny/results",
            json_body={"parameters": PARAMS, "mode": "streaming"},
        )
        assert status == 202
        assert again["deduplicated"] is True and again["job_id"] == job_id

        feeder = BatchFeeder(tiny_dataset)

        # Epoch 1: a+b co-jump -> their existing CAP extends.
        receipt = append(server, "tiny", feeder.batch({"a", "b"}))
        assert receipt["epoch"] == 1 and receipt["observations"] == 3
        page = poll_events(server, "tiny", 0, expect=1)
        (event,) = page["events"]
        assert event["type"] == "extended"
        assert event["cap"]["sensors"] == ["a", "b"]
        assert event["epoch"] == 1 and event["seq"] == 1
        assert page["cursor"] == 1
        cursor = page["cursor"]

        # Epoch 2: c+d reach min_support -> a brand-new CAP.
        receipt = append(server, "tiny", feeder.batch({"c", "d"}))
        assert receipt["epoch"] == 2
        page = poll_events(server, "tiny", cursor, expect=1)
        (event,) = page["events"]
        assert event["type"] == "new"
        assert event["cap"]["sensors"] == ["c", "d"]
        assert event["epoch"] == 2 and event["seq"] == 2
        cursor = page["cursor"]

        # Epoch 3: a flat batch changes nothing -> no events, ever.
        append(server, "tiny", feeder.batch(set()))
        status, page = server.get_json(
            f"/api/v1/datasets/tiny/events?cursor={cursor}&wait=2"
        )
        assert status == 200 and page["events"] == []
        assert page["cursor"] == cursor == 2

        # A cursor stored at any point replays the identical prefix.
        status, replay = server.get_json("/api/v1/datasets/tiny/events?cursor=0")
        assert status == 200
        assert [e["seq"] for e in replay["events"]] == [1, 2]
        assert [e["type"] for e in replay["events"]] == ["extended", "new"]

        # The SSE framing carries the same feed with resumable ids.
        status, body = server.request(
            "GET", "/api/v1/datasets/tiny/events/stream?cursor=0"
        )
        assert status == 200
        text = body.decode("utf-8")
        assert "id: 1\n" in text and "id: 2\n" in text
        assert "event: extended\n" in text and "event: new\n" in text

        # Both events match the rule at min_sensors=2 -> exactly two
        # warnings, one per event, never re-fired.
        status, alerts = server.get_json("/api/v1/datasets/tiny/alerts")
        assert status == 200
        fired = alerts["alerts"]
        assert [a["event_id"] for a in fired] == [e["event_id"]
                                                  for e in replay["events"]]
        assert {a["severity"] for a in fired} == {"warning"}
        assert len({a["alert_id"] for a in fired}) == 2
        status, by_rule = server.get_json(
            "/api/v1/datasets/tiny/alerts?rule=co-move"
        )
        assert status == 200 and len(by_rule["alerts"]) == 2

        # Satellite (d): the stream metric families are exposed.
        status, body = server.request("GET", "/api/v1/metrics")
        assert status == 200
        exposition = body.decode("utf-8")
        assert "repro_stream_batches_total" in exposition
        assert "repro_stream_lag_seconds" in exposition
        assert 'repro_alerts_fired_total{rule="co-move"} 2' in exposition
        status, stats = server.get_json("/api/v1/admin/stats")
        assert status == 200
        assert "repro_stream_batches_total" in json.dumps(stats)

        # The resident job is alive (claimed or parked between drains).
        status, doc = server.get_json(f"/api/v1/jobs/{job_id}")
        assert status == 200 and doc["state"] in ("queued", "running")

    # Server gone; the CLI reads the same durable feed and alert log.
    env = {"PYTHONPATH": str(SRC_DIR)}
    tail = subprocess.run(
        [sys.executable, "-m", "repro.cli", "stream", "tail", "tiny",
         "--store", str(store), "--cursor", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert tail.returncode == 0, tail.stderr
    assert "extended" in tail.stdout and "c,d" in tail.stdout
    alerts_cli = subprocess.run(
        [sys.executable, "-m", "repro.cli", "alerts", "tiny",
         "--store", str(store)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert alerts_cli.returncode == 0, alerts_cli.stderr
    assert "co-move" in alerts_cli.stdout and "warning" in alerts_cli.stdout

    # Alerts live in their own log alone: no span store rides beside it.
    from repro.store.database import Database

    database = Database(store)
    fired = database.collection("alerts").find()
    assert [a["rule_id"] for a in fired] == ["co-move", "co-move"]
    assert "spans" not in database


def test_stream_rejects_bad_batches_and_rules(tmp_path, tiny_dataset):
    with ServerProcess(tmp_path / "db.json", lease_seconds=2.0) as server:
        upload_dataset(server, tiny_dataset)
        # Off-grid batch -> 400 with the uniform error envelope.
        start = tiny_dataset.timeline[-1] + timedelta(hours=5)
        status, body = server.post_json(
            "/api/v1/datasets/tiny/observations",
            json_body={"timeline": [start.isoformat()],
                       "series": {sid: [0.0] for sid in tiny_dataset.sensor_ids}},
        )
        assert status == 400 and body["error"]["code"] == "invalid_batch"
        status, body = server.post_json(
            "/api/v1/datasets/unknown/observations",
            json_body={"timeline": [], "series": {}},
        )
        assert status == 404
        status, body = server.post_json(
            "/api/v1/datasets/tiny/alert-rules",
            json_body={"rule_id": "r", "levels": [{"min_sensors": 1,
                                                   "severity": "x"}]},
        )
        assert status == 400 and body["error"]["code"] == "invalid_rule"
        # Streaming requires a durable registry -- this server has one, but
        # segmentation is incompatible with incremental mining.
        status, body = server.post_json(
            "/api/v1/datasets/tiny/results",
            json_body={"parameters": {**PARAMS, "segmentation": "bottom_up",
                                      "segmentation_error": 0.5},
                       "mode": "streaming"},
        )
        assert status == 400 and body["error"]["code"] == "invalid_parameters"


def test_rule_lifecycle_roundtrip(tmp_path, tiny_dataset):
    with ServerProcess(tmp_path / "db.json", lease_seconds=2.0) as server:
        upload_dataset(server, tiny_dataset)
        status, _ = server.post_json("/api/v1/datasets/tiny/alert-rules",
                                     json_body=RULE)
        assert status == 201
        status, body = server.post_json("/api/v1/datasets/tiny/alert-rules",
                                        json_body=RULE)
        assert status == 201 and body["replaced"] is True
        status, listing = server.get_json("/api/v1/datasets/tiny/alert-rules")
        assert status == 200
        assert [r["rule_id"] for r in listing["rules"]] == ["co-move"]
        assert "rule_uid" not in listing["rules"][0]
        status, _ = server.request(
            "DELETE", "/api/v1/datasets/tiny/alert-rules/co-move"
        )
        assert status == 204
        status, listing = server.get_json("/api/v1/datasets/tiny/alert-rules")
        assert listing["rules"] == []
        status, _ = server.request(
            "DELETE", "/api/v1/datasets/tiny/alert-rules/co-move"
        )
        assert status == 404
