"""Tests for dataset ⇄ document conversion (store persistence)."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone, tzinfo
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Sensor, SensorDataset
from repro.data.documents import dataset_from_document, dataset_to_document
from repro.data.synthetic import generate_covid19
from repro.store import Database
from repro.store.upgrade import upgrade
from tests.conftest import legacy_dataset_document

LEGACY_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "dataset_document_v1.json"
QUIET_NAN_BITS = 0x7FF8_0000_0000_0000


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype="<f8").view("<u8")


def _json_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def assert_bit_identical(restored: SensorDataset, original: SensorDataset) -> None:
    """Same dataset, bit for bit, except that every NaN is the quiet NaN."""
    assert restored.name == original.name
    assert restored.sensor_ids == original.sensor_ids
    assert restored.attributes == original.attributes
    assert restored.timeline == original.timeline
    assert [t.isoformat() for t in restored.timeline] == [
        t.isoformat() for t in original.timeline
    ]
    for sid in original.sensor_ids:
        assert restored.sensor(sid) == original.sensor(sid)
        got, want = restored.values(sid), original.values(sid)
        missing = np.isnan(want)
        assert np.array_equal(np.isnan(got), missing)
        assert np.array_equal(_bits(got)[~missing], _bits(want)[~missing])
        assert (_bits(got)[missing] == QUIET_NAN_BITS).all()


def _dataset(timeline, columns) -> SensorDataset:
    sensors = [Sensor(f"s{i}", "temp", 43.46 + i / 1000, -3.8) for i in range(len(columns))]
    measurements = {f"s{i}": np.asarray(column) for i, column in enumerate(columns)}
    return SensorDataset("prop", timeline, sensors, measurements)


class TestRoundTrip:
    def test_tiny_round_trip(self, tiny_dataset):
        doc = dataset_to_document(tiny_dataset)
        restored = dataset_from_document(doc)
        assert restored.name == tiny_dataset.name
        assert restored.sensor_ids == tiny_dataset.sensor_ids
        assert restored.timeline == tiny_dataset.timeline
        assert restored.attributes == tiny_dataset.attributes
        for sid in tiny_dataset.sensor_ids:
            np.testing.assert_allclose(
                restored.values(sid), tiny_dataset.values(sid), equal_nan=True
            )

    def test_nan_becomes_quiet_nan_and_back(self, tiny_dataset):
        values = tiny_dataset.values("a").copy()
        # A negative NaN with a payload: written as the standard quiet NaN.
        values[:1].view("<u8")[0] = 0xFFF8_0000_0000_0001
        ds = tiny_dataset.subset(tiny_dataset.sensor_ids)
        ds._measurements["a"] = values  # type: ignore[attr-defined]
        doc = dataset_to_document(ds)
        clean = dataset_to_document(tiny_dataset.subset(tiny_dataset.sensor_ids))
        assert doc["series"]["b"] == clean["series"]["b"]
        restored = dataset_from_document(doc)
        assert _bits(restored.values("a"))[0] == QUIET_NAN_BITS
        assert np.array_equal(restored.values("a")[1:], values[1:])

    def test_document_is_pure_json(self, tiny_dataset):
        doc = dataset_to_document(tiny_dataset)
        rebuilt = json.loads(json.dumps(doc))
        restored = dataset_from_document(rebuilt)
        assert restored.sensor_ids == tiny_dataset.sensor_ids

    def test_generated_dataset_round_trip(self):
        ds = generate_covid19(seed=0, steps=50)
        restored = dataset_from_document(dataset_to_document(ds))
        assert restored.num_records == ds.num_records
        assert restored.describe() == ds.describe()

    def test_sensor_metadata_preserved(self, tiny_dataset):
        restored = dataset_from_document(dataset_to_document(tiny_dataset))
        for sid in tiny_dataset.sensor_ids:
            original = tiny_dataset.sensor(sid)
            copy = restored.sensor(sid)
            assert (copy.attribute, copy.lat, copy.lon) == (
                original.attribute, original.lat, original.lon,
            )

    def test_decoded_series_are_writable(self, tiny_dataset):
        restored = dataset_from_document(_json_round_trip(dataset_to_document(tiny_dataset)))
        values = restored.values("a")
        values[0] = 1.0
        assert values[0] == 1.0

    def test_unknown_encoding_is_refused(self, tiny_dataset):
        doc = {**dataset_to_document(tiny_dataset), "encoding": 3}
        with pytest.raises(ValueError, match="encoding 3"):
            dataset_from_document(doc)


# -- the binary layout, property-tested ------------------------------------------

readings = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308]),
    # Arbitrary NaN payloads and signs, signalling ones included.
    st.integers(0, (1 << 52) - 1).map(
        lambda payload: float(np.array([0x7FF0_0000_0000_0001 | payload], "<u8").view("<f8")[0])
    ),
)
offsets = st.one_of(
    st.none(),
    st.integers(-14 * 60, 14 * 60).map(lambda minutes: timezone(timedelta(minutes=minutes))),
    st.integers(-86_399, 86_399).map(lambda seconds: timezone(timedelta(seconds=seconds))),
)
steps = st.one_of(
    st.integers(1, 999_999).map(lambda us: timedelta(microseconds=us)),  # sub-second
    st.sampled_from([timedelta(seconds=1), timedelta(minutes=5), timedelta(hours=1),
                     timedelta(days=1), timedelta(seconds=1, microseconds=250_000)]),
)


@st.composite
def datasets(draw) -> SensorDataset:
    count = draw(st.integers(2, 40))
    start = draw(st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)))
    start = start.replace(tzinfo=draw(offsets))
    step = draw(steps)
    timeline = [start + step * i for i in range(count)]
    columns = draw(st.lists(st.lists(readings, min_size=count, max_size=count),
                            min_size=1, max_size=3))
    return _dataset(timeline, columns)


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_round_trip_is_bit_identical(dataset):
    doc = _json_round_trip(dataset_to_document(dataset))
    assert doc["encoding"] == 2
    assert isinstance(doc["timeline"], dict)  # evenly spaced: start + step + count
    assert_bit_identical(dataset_from_document(doc), dataset)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 30), offsets.filter(lambda tz: tz is not None), st.data())
def test_mixed_offset_timeline_keeps_its_iso_list(count, first, data):
    """Evenly spaced in UTC, but not every timestamp shares the start's offset."""
    second = data.draw(offsets.filter(lambda tz: tz is not None and tz != first))
    zones = data.draw(st.lists(st.sampled_from([first, second]), min_size=count,
                               max_size=count).filter(lambda z: len(set(z)) == 2))
    start = datetime(2016, 3, 1, tzinfo=timezone.utc)
    timeline = [(start + timedelta(hours=i)).astimezone(zone) for i, zone in enumerate(zones)]
    dataset = _dataset(timeline, [np.arange(count, dtype=float)])
    doc = _json_round_trip(dataset_to_document(dataset))
    assert doc["timeline"] == [t.isoformat() for t in timeline]
    assert_bit_identical(dataset_from_document(doc), dataset)


class _SummerTime(tzinfo):
    """One zone object whose offset moves from +01:00 to +02:00 at 2016-03-27 02:00."""

    def utcoffset(self, when):
        return timedelta(hours=2 if when.replace(tzinfo=None) >= datetime(2016, 3, 27, 2) else 1)

    def dst(self, when):
        return self.utcoffset(when) - timedelta(hours=1)


def test_offset_change_within_one_zone_keeps_its_iso_list():
    """Even steps within one zone object, but the offset changes part way."""
    zone = _SummerTime()
    timeline = [datetime(2016, 3, 26, 20, tzinfo=zone) + timedelta(hours=i) for i in range(12)]
    dataset = _dataset(timeline, [np.arange(12, dtype=float)])
    doc = _json_round_trip(dataset_to_document(dataset))
    assert doc["timeline"] == [t.isoformat() for t in timeline]


# -- the legacy layout -----------------------------------------------------------


def _upgraded(legacy: dict, tmp_path: Path) -> dict:
    """``legacy`` stored as a dataset, then rewritten by ``repro store
    upgrade``: the dataset document the store holds afterwards."""
    path = tmp_path / "store.json"
    Database(path).collection("datasets").insert_one(
        {"name": legacy["name"], "dataset": legacy}
    )
    upgrade(path)
    return _json_round_trip(
        Database(path)["datasets"].find_one({"name": legacy["name"]})["dataset"]
    )


class TestLegacyLayout:
    """Documents written before the binary layout are refused at runtime and
    open unchanged after ``repro store upgrade``."""

    def test_fixture_decodes_like_its_v2_re_encode(self, tmp_path):
        legacy = json.loads(LEGACY_FIXTURE.read_text())
        assert "encoding" not in legacy
        with pytest.raises(ValueError, match="repro store upgrade --store"):
            dataset_from_document(legacy)
        reencoded = _upgraded(legacy, tmp_path)
        assert reencoded["encoding"] == 2
        dataset = dataset_from_document(reencoded)
        assert reencoded == _json_round_trip(dataset_to_document(dataset))
        assert_bit_identical(
            dataset_from_document(_json_round_trip(dataset_to_document(dataset))), dataset
        )
        assert legacy_dataset_document(dataset) == legacy

    def test_fixture_keeps_its_special_values(self, tmp_path):
        dataset = dataset_from_document(
            _upgraded(json.loads(LEGACY_FIXTURE.read_text()), tmp_path)
        )
        assert np.signbit(dataset.values("s0")[4]) and dataset.values("s0")[4] == 0.0
        assert dataset.values("s1")[1] == np.inf and dataset.values("s2")[3] == -np.inf
        assert np.isnan(dataset.values("s1")[3:5]).all()
        assert dataset.attributes == ("temperature", "traffic_volume", "humidity", "noise")

    def test_generated_dataset_opens_from_either_layout(self, tmp_path):
        ds = generate_covid19(seed=0, steps=50)
        legacy = dataset_from_document(
            _upgraded(_json_round_trip(legacy_dataset_document(ds)), tmp_path)
        )
        binary = dataset_from_document(_json_round_trip(dataset_to_document(ds)))
        assert_bit_identical(binary, legacy)
