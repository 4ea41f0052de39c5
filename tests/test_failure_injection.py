"""Failure injection and awkward-input tests across the stack.

Production systems earn trust in the unhappy paths: corrupted snapshots,
unwritable disks, oversized requests, weird-but-legal data.  Each test
injects one failure and checks the system degrades the way it promises.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import numpy as np

from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.core.types import Sensor, SensorDataset
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.app import TestClient, create_app
from repro.store.database import Database
from repro.store.upgrade import upgrade
from tests.conftest import make_timeline, step_series, write_legacy_snapshot


class TestStoreCorruption:
    def test_truncated_snapshot_quarantined(self, tmp_path):
        path = tmp_path / "db.json"
        db = Database()
        db["x"].insert_one({"a": 1})
        write_legacy_snapshot(db, path)
        # Truncate the file mid-JSON.
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        # Graceful degradation: the upgrade's import quarantines the bad
        # file instead of refusing to start.
        upgrade(path)
        reopened = Database.open(path)
        assert reopened["x"].count() == 0
        quarantined = [p for p in tmp_path.iterdir() if ".corrupt-" in p.name]
        assert len(quarantined) == 1
        # The torn bytes survive for post-mortems.
        assert quarantined[0].read_text() == raw[: len(raw) // 2]


class TestServerUnhappyPaths:
    def test_oversized_chunk_rejected_with_413(self):
        app = create_app(body_limit=1024)
        client = TestClient(app)
        begin = client.post(
            "/api/v1/datasets/x/upload/begin",
            json_body={
                "location_csv": "id,attribute,lat,lon\ns,t,0,0\n",
                "attribute_csv": "t\n",
            },
        )
        assert begin.status == 201
        big = "id,attribute,time,data\n" + "s,t,2016-03-01 00:00:00,1\n" * 200
        resp = client.post("/api/v1/datasets/x/upload/chunk", text_body=big)
        assert resp.status == 413

    def test_abandoned_upload_does_not_leak_into_registry(self):
        client = TestClient(create_app())
        client.post(
            "/api/v1/datasets/ghost/upload/begin",
            json_body={
                "location_csv": "id,attribute,lat,lon\ns,t,0,0\n",
                "attribute_csv": "t\n",
            },
        )
        # Never finished: dataset list stays empty, mining 404s.
        assert client.get("/api/v1/datasets").json() == {"datasets": []}
        params = recommended_parameters("santander").to_document()
        assert client.post(
            "/api/v1/datasets/ghost/results", json_body={"parameters": params}
        ).status == 404

    def test_failed_finish_clears_pending_upload(self):
        client = TestClient(create_app())
        client.post(
            "/api/v1/datasets/x/upload/begin",
            json_body={
                "location_csv": "id,attribute,lat,lon\ns,t,0,0\n",
                "attribute_csv": "t\n",
            },
        )
        # One chunk referencing an undeclared sensor -> finish must 400.
        client.post(
            "/api/v1/datasets/x/upload/chunk",
            text_body="id,attribute,time,data\nghost,t,2016-03-01 00:00:00,1\n"
                      "ghost,t,2016-03-01 01:00:00,2\n",
        )
        assert client.post("/api/v1/datasets/x/upload/finish").status == 400
        # The pending state is gone: another finish now conflicts (409),
        # it does not retry the bad data.
        assert client.post("/api/v1/datasets/x/upload/finish").status == 409

    def test_malformed_json_body_is_400_not_500(self):
        client = TestClient(create_app())
        resp = client.post("/api/v1/datasets/x/results", text_body="{not json")
        assert resp.status == 400


class TestAwkwardData:
    def test_co_located_sensors_are_distinct(self):
        """Paper footnote 2: same location, different attributes."""
        n = 12
        timeline = make_timeline(n)
        sensors = [
            Sensor("t0", "temperature", 43.0, -3.0),
            Sensor("h0", "humidity", 43.0, -3.0),  # exactly co-located
        ]
        measurements = {
            "t0": step_series(n, [3, 7]),
            "h0": step_series(n, [3, 7], base=60.0),
        }
        ds = SensorDataset("colo", timeline, sensors, measurements)
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=0.1, max_attributes=2, min_support=2
        )
        result = MiscelaMiner(params).mine(ds)
        assert {c.key() for c in result.caps} == {("h0", "t0")}

    def test_constant_series_produces_no_patterns(self):
        n = 20
        timeline = make_timeline(n)
        sensors = [
            Sensor("a", "temperature", 43.0, -3.0),
            Sensor("b", "humidity", 43.0005, -3.0),
        ]
        measurements = {"a": np.full(n, 5.0), "b": np.full(n, 6.0)}
        ds = SensorDataset("flat", timeline, sensors, measurements)
        params = MiningParameters(
            evolving_rate=0.0, distance_threshold=1.0, max_attributes=2, min_support=1
        )
        assert MiscelaMiner(params).mine(ds).caps == []

    def test_all_nan_sensor_is_inert(self):
        n = 16
        timeline = make_timeline(n)
        sensors = [
            Sensor("a", "temperature", 43.0, -3.0),
            Sensor("b", "humidity", 43.0005, -3.0),
            Sensor("dead", "light", 43.0002, -3.0),
        ]
        measurements = {
            "a": step_series(n, [3, 7, 11]),
            "b": step_series(n, [3, 7, 11], base=60.0),
            "dead": np.full(n, np.nan),
        }
        ds = SensorDataset("dead1", timeline, sensors, measurements)
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=3, min_support=2
        )
        result = MiscelaMiner(params).mine(ds)
        assert {c.key() for c in result.caps} == {("a", "b")}

    def test_extreme_missing_rate_still_mines(self):
        ds = generate_santander(seed=1, neighbourhoods=3, steps=240, missing_rate=0.5)
        params = recommended_parameters("santander").with_updates(min_support=2)
        result = MiscelaMiner(params).mine(ds)  # must not raise
        for cap in result.caps:
            assert cap.support >= 2

    def test_minimal_two_step_dataset(self):
        timeline = make_timeline(2)
        sensors = [
            Sensor("a", "temperature", 43.0, -3.0),
            Sensor("b", "humidity", 43.0005, -3.0),
        ]
        measurements = {
            "a": np.array([0.0, 5.0]),
            "b": np.array([0.0, 5.0]),
        }
        ds = SensorDataset("mini", timeline, sensors, measurements)
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2, min_support=1
        )
        result = MiscelaMiner(params).mine(ds)
        assert len(result.caps) == 1
        assert result.caps[0].evolving_indices == (1,)
