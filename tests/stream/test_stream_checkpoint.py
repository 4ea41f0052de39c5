"""A stream epoch's stored layout: packed miner checkpoint, alerts by reference.

Contracts:

* ``EvolvingSet`` accepts and rejects exactly what its original
  ``np.isin``/``np.diff`` checks did, and :meth:`EvolvingSet.append`
  refuses a tail that overlaps the set it extends;
* the ``stream_state.watermark`` checkpoint is packed columns and
  round-trips exactly (sensors with no events, ``None`` last values,
  horizons past 65,536 steps); a list-form watermark is refused with an
  error naming ``repro store upgrade``;
* an alert is stored as a reference to its event, and ``GET …/alerts`` and
  ``repro alerts`` render it byte for byte as the full-document layout
  did (``fixtures/alert_bodies.json`` was captured from that layout);
* ``repro store upgrade`` rewrites a store written in the older layout
  (``fixtures/legacy_stream/``: list-form watermark, full alerts), after
  which it serves the same bodies and its stream resumes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.cache.keys import cache_key
from repro.core.parameters import MiningParameters
from repro.core.streaming import StreamingMiner
from repro.core.types import EvolvingSet, Sensor, SensorDataset
from repro.server.app import TestClient, create_app
from repro.store import Database
from repro.stream import StreamSession, compact_feed
from tests.conftest import make_timeline, step_series
from tests.stream.test_stream_retention import JUMPS, drive

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "alert_bodies.json"
LEGACY_STORE = FIXTURES / "legacy_stream"

PARAMS = MiningParameters(
    evolving_rate=1.0, distance_threshold=2.0, max_attributes=3, min_support=3
)
RULES = [
    {"rule_id": "co-move", "name": "Co-moving sensors",
     "event_types": ["new", "extended"],
     "levels": [{"min_sensors": 2, "severity": "warning"},
                {"min_sensors": 3, "severity": "critical"}]},
    {"rule_id": "heat", "attribute": "temperature",
     "levels": [{"min_sensors": 2, "severity": "info"}]},
    {"rule_id": "gone", "name": "Deleted after firing",
     "levels": [{"min_sensors": 2, "severity": "notice"}]},
]
#: The alert queries the golden file pins: route query strings, CLI flags.
ROUTE_QUERIES = ("", "?rule=heat", "?rule=gone", "?limit=3")
CLI_QUERIES = ((), ("--rule", "co-move"), ("--json",), ("--json", "--rule", "gone"))


def alert_dataset() -> SensorDataset:
    """The conftest ``tiny_dataset``: two clusters {a, b} and {c, d}."""
    n = 16
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
    return SensorDataset("tiny", make_timeline(n), sensors, measurements)


def build_alert_store(path: Path, epochs=JUMPS):
    """Upload, three rules, ``epochs`` mined on a fixed clock, one rule
    deleted after firing, one feed fold; returns the session and levels."""
    dataset = alert_dataset()
    database = Database(path)
    app = create_app(database, job_workers=1)
    try:
        client = TestClient(app)
        assert client.upload_dataset(dataset).status == 201
        for rule in RULES:
            assert client.post("/api/v1/datasets/tiny/alert-rules", json_body=rule).status == 201
        ticks = itertools.count()
        session = StreamSession(
            database, dataset, PARAMS, cache_key("tiny", PARAMS),
            clock=lambda: 1_700_000_000.0 + 0.25 * next(ticks),
        )
        session, levels = drive(database, dataset, PARAMS, epochs, session=session)
        assert client.delete("/api/v1/datasets/tiny/alert-rules/gone").status == 204
        compact_feed(database, "tiny", {"retention_seqs": 4})
    finally:
        app.close(wait=True)
    return session, levels


def alert_bodies(path: Path) -> dict[str, str]:
    """Every pinned rendering of the store's alerts, by golden key."""
    bodies: dict[str, str] = {}
    app = create_app(Database(path), job_workers=1)
    try:
        client = TestClient(app)
        for query in ROUTE_QUERIES:
            response = client.get(f"/api/v1/datasets/tiny/alerts{query}")
            assert response.status == 200
            bodies[f"GET{query}"] = response.body.decode("utf-8")
    finally:
        app.close(wait=True)
        app.state.database.close()
    for args in CLI_QUERIES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["alerts", "tiny", "--store", str(path), *args]) == 0
        bodies[" ".join(("repro alerts",) + args)] = out.getvalue()
    return bodies


def public_events(database: Database) -> list[dict]:
    return [
        {k: v for k, v in row.items() if k not in ("_id", "created_at")}
        for row in database.collection("cap_events").find({"dataset": "tiny"}, sort="seq")
    ]


# -- EvolvingSet checks -------------------------------------------------------------


def original_checks_accept(indices, directions) -> bool:
    """The constructor's checks as first written (``np.diff``/``np.isin``)."""
    indices = np.asarray(indices, dtype=np.int64)
    directions = np.asarray(directions, dtype=np.int8)
    if indices.shape != directions.shape or indices.ndim != 1:
        return False
    if indices.size and np.any(np.diff(indices) <= 0):
        return False
    return not (directions.size and not np.all(np.isin(directions, (1, -1))))


def accepts(indices, directions) -> bool:
    try:
        EvolvingSet(indices, directions)
    except ValueError:
        return False
    return True


_INDICES = st.lists(st.integers(-3, 40), max_size=8)
_DIRECTIONS = st.lists(st.sampled_from([1, -1, 0, 2, -2, 127, -128]), max_size=8)


@settings(max_examples=400, deadline=None)
@given(indices=_INDICES, directions=_DIRECTIONS, sort=st.sampled_from(["no", "up", "down"]))
def test_evolving_set_checks_match_the_original_ones(indices, directions, sort):
    if sort != "no":
        indices = sorted(indices, reverse=sort == "down")
    assert accepts(indices, directions) == original_checks_accept(indices, directions)
    # Equal lengths too, where the index and direction checks decide.
    paired = directions[: len(indices)] + [1] * (len(indices) - len(directions))
    assert accepts(indices, paired) == original_checks_accept(indices, paired)


@pytest.mark.parametrize(
    "indices, directions, ok",
    [
        ([], [], True),
        ([3], [1], True),
        ([1, 4, 9], [1, -1, 1], True),
        ([1, 1], [1, 1], False),               # duplicate
        ([4, 2], [1, 1], False),               # descending
        ([1, 2], [1, 0], False),
        ([1, 2], [2, 1], False),
        ([1, 2], [-128, 1], False),            # int8 abs(-128) wraps to -128
        ([1, 2, 3], [1, 1], False),            # shape mismatch
        ([[1, 2]], [[1, 1]], False),           # not 1-D
        (np.empty((0, 2)), np.empty((0, 2)), False),
    ],
)
def test_evolving_set_checks_on_the_edge_cases(indices, directions, ok):
    assert accepts(indices, directions) is ok
    assert original_checks_accept(indices, directions) is ok


def test_append_checks_only_the_seam_and_keeps_arrays_read_only():
    head = EvolvingSet(np.array([1, 5]), np.array([1, -1]))
    tail = EvolvingSet(np.array([1, 3]), np.array([-1, 1]))
    with pytest.raises(ValueError, match="not past"):
        head.append(tail, 3, 10)       # first shifted index 4 <= 5
    with pytest.raises(ValueError, match="not past"):
        head.append(tail, 4, 10)       # 5 <= 5: an overlap of one
    merged = head.append(tail, 5, 10)
    assert merged.indices.tolist() == [1, 5, 6, 8]
    assert merged.directions.tolist() == [1, -1, -1, 1]
    assert not merged.indices.flags.writeable and not merged.directions.flags.writeable
    assert head.append(EvolvingSet.empty(), 99, 10).indices.tolist() == [1, 5]
    assert EvolvingSet.empty().append(tail, 0, 10).indices.tolist() == [1, 3]


def test_append_extends_a_built_bitmap_with_the_tail_only():
    head = EvolvingSet(np.array([1, 5]), np.array([1, -1]))
    head.bits  # build it
    merged = head.append(EvolvingSet(np.array([1, 3]), np.array([-1, 1])), 5, 12)
    rebuilt = EvolvingSet(merged.indices.copy(), merged.directions.copy()).bits
    assert (merged.bits.presence, merged.bits.dirs) == (rebuilt.presence, rebuilt.dirs)
    assert merged.bits.horizon == 12


# -- the packed checkpoint ----------------------------------------------------------


def test_packed_checkpoint_round_trips_past_a_u2_horizon():
    from repro.core.streaming import pack_checkpoint, unpack_checkpoint

    evolving = {
        "quiet": EvolvingSet.empty(),
        "busy": EvolvingSet(np.array([2, 70_000, 70_001]), np.array([-1, 1, -1])),
        "late": EvolvingSet(np.array([65_535, 65_536]), np.array([1, 1])),
    }
    state = pack_checkpoint(70_002, "2016-03-01T00:00:00", [None, 2.5, float("nan")], evolving)
    assert state["indices"]["dtype"] == "<u4"
    state = json.loads(json.dumps(state))  # what the store keeps
    num_timestamps, last_values, unpacked = unpack_checkpoint(state)
    assert num_timestamps == 70_002
    assert list(unpacked) == list(evolving)
    for sid, ev in evolving.items():
        assert unpacked[sid].indices.tolist() == ev.indices.tolist()
        assert unpacked[sid].directions.tolist() == ev.directions.tolist()
    assert np.isnan(last_values["quiet"]) and np.isnan(last_values["late"])
    assert last_values["busy"] == 2.5


def test_adopted_checkpoint_mines_and_extends_like_the_original():
    dataset = alert_dataset()
    values = {sid: dataset.values(sid).copy() for sid in dataset.sensor_ids}
    values["d"][-1] = np.nan  # a missing last value
    dataset = SensorDataset("tiny", dataset.timeline, list(dataset), values)
    grown = StreamingMiner(PARAMS, dataset)
    interval = dataset.interval
    timeline = [dataset.timeline[-1] + interval * (i + 1) for i in range(4)]
    grown.extend(timeline, {sid: np.array([30.0, 30.0, 36.0, 36.0]) for sid in dataset.sensor_ids})
    state = json.loads(json.dumps(grown.export_state()))
    assert state["encoding"] == 2 and "evolving" not in state
    adopted = StreamingMiner(PARAMS, dataset)
    adopted.adopt_state(state)
    assert adopted.export_state() == grown.export_state()
    batch = [timeline[-1] + interval * (i + 1) for i in range(3)]
    series = {sid: np.array([36.0, np.nan, 41.0]) for sid in dataset.sensor_ids}
    for miner in (grown, adopted):
        miner.extend(batch, series)
    assert [c.to_document() for c in adopted.mine().caps] == [
        c.to_document() for c in grown.mine().caps
    ]
    assert adopted.export_state() == grown.export_state()


def test_list_form_checkpoint_is_refused_naming_the_upgrade():
    miner = StreamingMiner(PARAMS, alert_dataset())
    with pytest.raises(ValueError, match="repro store upgrade"):
        miner.adopt_state({"num_timestamps": 16, "last_values": {}, "evolving": {}})


# -- alerts stored by reference -----------------------------------------------------


def test_alert_bodies_match_the_full_document_layout(tmp_path):
    session, _ = build_alert_store(tmp_path / "db.json")
    stored = session.database.collection("alerts").find()
    assert stored and all(
        set(row) == {"_id", "rule_id", "rule_name", "dataset", "event_id", "seq",
                     "severity", "min_sensors", "fired_at"}
        for row in stored
    )
    session.database.close()
    assert alert_bodies(tmp_path / "db.json") == json.loads(GOLDEN.read_text())


def test_upgrade_rewrites_an_older_stream_store_which_then_resumes(tmp_path):
    legacy = tmp_path / "legacy" / "db.json"
    shutil.copytree(LEGACY_STORE, legacy.parent)
    with Database(legacy) as database:
        with pytest.raises(ValueError, match="repro store upgrade"):
            StreamSession(database, alert_dataset(), PARAMS, cache_key("tiny", PARAMS))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["store", "upgrade", "--store", str(legacy)]) == 0
    assert "1 stream checkpoint(s), 12 alert(s)" in out.getvalue()
    assert alert_bodies(legacy) == json.loads(GOLDEN.read_text())

    # The upgraded stream resumes where a current-layout one goes on.
    fresh, levels = build_alert_store(tmp_path / "fresh" / "db.json")
    more = [{"c", "d"}, {"a", "b"}]
    drive(fresh.database, fresh.dataset, PARAMS, more, levels=dict(levels), session=fresh)
    with Database(legacy) as database:
        ticks = itertools.count(100)
        resumed = StreamSession(
            database, alert_dataset(), PARAMS, cache_key("tiny", PARAMS),
            clock=lambda: 1_700_000_000.0 + 0.25 * next(ticks),
        )
        assert resumed.replayed_epochs == 0
        drive(database, resumed.dataset, PARAMS, more, levels=dict(levels), session=resumed)
        assert public_events(database) == public_events(fresh.database)
        assert resumed.caps == fresh.caps
        assert resumed.miner.export_state() == fresh.miner.export_state()
    fresh.database.close()
