"""Shared fixtures: small hand-built datasets with known ground truth.

The synthetic generators are great for integration tests, but unit tests
want datasets where every CAP is known by construction.  ``tiny_dataset``
builds one: four sensors in two spatial clusters, with sensors ``a`` and
``b`` sharing step changes (they co-evolve) and ``c``/``d`` independent.
"""

from __future__ import annotations

import functools
import json
import math
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, settings
from hypothesis import strategies as st

from repro.core.miner import MiningResult
from repro.core.parameters import MiningParameters
from repro.core.result_columns import ResultTable
from repro.core.search import search_all
from repro.core.types import CAP, Sensor, SensorDataset
from repro.jobs import mine_process
from repro.store.database import Database
from tests.jobs.harness import scripted_mine


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_unicode_table() -> None:
    """Build hypothesis's unicode table once, before any test draws text.

    Without a ``.hypothesis/`` directory the first ``st.text()`` draw
    computes that table (~2.5 s), inside whichever test happens to run
    first, which then fails hypothesis's too-slow health check.
    """
    find(st.text(min_size=1), bool, settings=settings(database=None, max_examples=1))


def search_caps(sensors, adjacency, evolving, params: MiningParameters) -> list[CAP]:
    """``search_all``'s ranked pattern rows as CAPs, through a result table."""
    rows = search_all(sensors, adjacency, evolving, params)
    return list(ResultTable.from_rows(rows, delayed=params.max_delay > 0))


def make_timeline(n: int, start: datetime | None = None, hours: int = 1) -> list[datetime]:
    start = start or datetime(2016, 3, 1)
    return [start + timedelta(hours=hours * i) for i in range(n)]


def step_series(n: int, jump_at: list[int], jump: float = 5.0, base: float = 10.0) -> np.ndarray:
    """A flat series with +jump steps at the given indices."""
    values = np.full(n, base, dtype=np.float64)
    level = base
    for i in range(1, n):
        if i in jump_at:
            level += jump
        values[i] = level
    return values


def mine_v1(client, dataset: str, parameters, **body):
    """POST one mine to the v1 results resource of ``dataset``."""
    return client.post(
        f"/api/v1/datasets/{dataset}/results",
        json_body={"parameters": parameters, **body},
    )


def result_caps(client, key: str) -> list[dict]:
    """Every CAP document of one v1 result, concatenated over its pages."""
    caps: list[dict] = []
    while True:
        page = client.get(
            f"/api/v1/results/{key}/caps?offset={len(caps)}&limit=1000"
        ).json()
        caps += page["caps"]
        if len(caps) >= page["total"]:
            return caps


def legacy_dataset_document(dataset: SensorDataset) -> dict:
    """``dataset`` in the legacy store layout: JSON floats, ``null``, ISO times.

    The layout every dataset document had before the binary columns; golden
    fixtures recorded in it compare against this rendering.
    """
    return {
        "name": dataset.name,
        "timeline": [t.isoformat() for t in dataset.timeline],
        "attributes": list(dataset.attributes),
        "sensors": [
            {"id": s.sensor_id, "attribute": s.attribute, "lat": s.lat, "lon": s.lon}
            for s in dataset
        ],
        "series": {
            s.sensor_id: [None if math.isnan(v) else float(v) for v in dataset.values(s.sensor_id)]
            for s in dataset
        },
    }


def write_legacy_snapshot(database: Database, path: Path) -> None:
    """Write ``database`` at ``path`` as a ``repro-store-v1`` snapshot.

    The format older releases exported and ``repro store upgrade`` imports
    (the runtime refuses to open it): every collection's ``dump()``, in
    creation order, as compact JSON.
    """
    snapshot = {
        "format": "repro-store-v1",
        "collections": [database[name].dump() for name in database],
    }
    path.write_text(json.dumps(snapshot, separators=(",", ":")))


@pytest.fixture
def decodes(monkeypatch) -> list[str]:
    """Records the dataset name of every ``MiningResult.from_document`` call."""
    calls: list[str] = []
    original = MiningResult.from_document.__func__

    def counting(cls, doc):
        calls.append(doc["dataset"])
        return original(cls, doc)

    monkeypatch.setattr(MiningResult, "from_document", classmethod(counting))
    return calls


@pytest.fixture
def worker_mine(monkeypatch):
    """``worker_mine(steps=, delay=, gate=)`` makes async whole mines run
    :func:`tests.jobs.harness.scripted_mine` in their worker process
    instead of the miner."""

    def install(**script) -> None:
        body = functools.partial(scripted_mine, **script)
        monkeypatch.setattr(mine_process, "mine_columns", body)

    return install


@pytest.fixture
def tiny_dataset() -> SensorDataset:
    """Four sensors, two clusters; a+b co-evolve at steps 3, 7, 12.

    Cluster 1 (|a−b| ≈ 110 m): ``a`` (temperature), ``b`` (traffic).
    Cluster 2 (~11 km away):   ``c`` (temperature), ``d`` (humidity),
    co-evolving at steps 5 and 9 only.
    """
    n = 16
    timeline = make_timeline(n)
    sensors = [
        Sensor("a", "temperature", 43.4620, -3.8020),
        Sensor("b", "traffic_volume", 43.4630, -3.8020),
        Sensor("c", "temperature", 43.5600, -3.8020),
        Sensor("d", "humidity", 43.5610, -3.8020),
    ]
    measurements = {
        "a": step_series(n, [3, 7, 12]),
        "b": step_series(n, [3, 7, 12], base=100.0),
        "c": step_series(n, [5, 9], base=12.0),
        "d": step_series(n, [5, 9, 14], base=60.0),
    }
    return SensorDataset("tiny", timeline, sensors, measurements)


@pytest.fixture
def tiny_params() -> MiningParameters:
    """Parameters under which tiny_dataset's CAPs are exactly {a,b} and {c,d}."""
    return MiningParameters(
        evolving_rate=1.0,
        distance_threshold=2.0,
        max_attributes=3,
        min_support=2,
    )
