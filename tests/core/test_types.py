"""Unit tests for the core data model."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.bitset import bit_indices
from repro.core.types import (
    CAP,
    EvolvingSet,
    Sensor,
    SensorDataset,
    haversine_km,
)
from tests.conftest import make_timeline


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(43.0, -3.0, 43.0, -3.0) == 0.0

    def test_known_distance_paris_london(self):
        # Paris (48.8566, 2.3522) to London (51.5074, -0.1278) ≈ 343–344 km.
        d = haversine_km(48.8566, 2.3522, 51.5074, -0.1278)
        assert 340.0 < d < 348.0

    def test_symmetry(self):
        a = haversine_km(10.0, 20.0, -30.0, 40.0)
        b = haversine_km(-30.0, 40.0, 10.0, 20.0)
        assert a == pytest.approx(b)

    def test_one_degree_latitude(self):
        # One degree of latitude is ~111.2 km everywhere.
        d = haversine_km(40.0, 0.0, 41.0, 0.0)
        assert 110.0 < d < 112.5


class TestSensor:
    def test_valid_sensor(self):
        s = Sensor("s1", "temperature", 43.46, -3.80)
        assert s.sensor_id == "s1"
        assert s.attribute == "temperature"

    def test_distance_between_sensors(self):
        a = Sensor("a", "t", 43.0, -3.0)
        b = Sensor("b", "t", 43.0, -3.0)
        assert a.distance_km(b) == 0.0

    @pytest.mark.parametrize("lat", [-91.0, 91.0, 1000.0])
    def test_bad_latitude(self, lat):
        with pytest.raises(ValueError, match="latitude"):
            Sensor("s", "t", lat, 0.0)

    @pytest.mark.parametrize("lon", [-181.0, 181.0])
    def test_bad_longitude(self, lon):
        with pytest.raises(ValueError, match="longitude"):
            Sensor("s", "t", 0.0, lon)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="sensor_id"):
            Sensor("", "t", 0.0, 0.0)

    def test_empty_attribute_rejected(self):
        with pytest.raises(ValueError, match="attribute"):
            Sensor("s", "", 0.0, 0.0)

    def test_frozen(self):
        s = Sensor("s", "t", 0.0, 0.0)
        with pytest.raises(AttributeError):
            s.lat = 10.0  # type: ignore[misc]


def _simple_dataset(n=4):
    timeline = make_timeline(n)
    sensors = [Sensor("x", "temperature", 43.0, -3.0), Sensor("y", "light", 43.001, -3.0)]
    measurements = {
        "x": np.arange(n, dtype=float),
        "y": np.arange(n, dtype=float) * 2,
    }
    return SensorDataset("simple", timeline, sensors, measurements)


class TestSensorDataset:
    def test_basic_properties(self):
        ds = _simple_dataset(5)
        assert len(ds) == 2
        assert ds.num_timestamps == 5
        assert ds.interval == timedelta(hours=1)
        assert ds.sensor_ids == ("x", "y")
        assert ds.attributes == ("light", "temperature")

    def test_num_records_counts_non_nan(self):
        timeline = make_timeline(4)
        sensors = [Sensor("x", "t", 0.0, 0.0)]
        values = np.array([1.0, np.nan, 3.0, np.nan])
        ds = SensorDataset("d", timeline, sensors, {"x": values})
        assert ds.num_records == 2

    def test_duplicate_sensor_id_rejected(self):
        timeline = make_timeline(3)
        sensors = [Sensor("x", "t", 0.0, 0.0), Sensor("x", "h", 0.0, 0.0)]
        with pytest.raises(ValueError, match="duplicate"):
            SensorDataset("d", timeline, sensors, {"x": np.zeros(3)})

    def test_missing_measurements_rejected(self):
        timeline = make_timeline(3)
        with pytest.raises(ValueError, match="missing measurements"):
            SensorDataset("d", timeline, [Sensor("x", "t", 0, 0)], {})

    def test_wrong_length_rejected(self):
        timeline = make_timeline(3)
        with pytest.raises(ValueError, match="length"):
            SensorDataset("d", timeline, [Sensor("x", "t", 0, 0)], {"x": np.zeros(5)})

    def test_unknown_measurement_key_rejected(self):
        timeline = make_timeline(3)
        with pytest.raises(ValueError, match="unknown sensors"):
            SensorDataset(
                "d", timeline, [Sensor("x", "t", 0, 0)],
                {"x": np.zeros(3), "ghost": np.zeros(3)},
            )

    def test_uneven_timeline_rejected(self):
        timeline = make_timeline(3)
        timeline[2] = timeline[2] + timedelta(minutes=30)
        with pytest.raises(ValueError, match="evenly spaced"):
            SensorDataset("d", timeline, [Sensor("x", "t", 0, 0)], {"x": np.zeros(3)})

    def test_decreasing_timeline_rejected(self):
        timeline = [datetime(2016, 3, 2), datetime(2016, 3, 1)]
        with pytest.raises(ValueError):
            SensorDataset("d", timeline, [Sensor("x", "t", 0, 0)], {"x": np.zeros(2)})

    def test_attribute_registry_must_cover_sensors(self):
        timeline = make_timeline(3)
        with pytest.raises(ValueError, match="not in the registry"):
            SensorDataset(
                "d", timeline, [Sensor("x", "t", 0, 0)], {"x": np.zeros(3)},
                attributes=["other"],
            )

    def test_sensor_lookup_and_unknown(self):
        ds = _simple_dataset()
        assert ds.sensor("x").attribute == "temperature"
        with pytest.raises(KeyError, match="ghost"):
            ds.sensor("ghost")
        with pytest.raises(KeyError):
            ds.values("ghost")

    def test_contains_and_iter(self):
        ds = _simple_dataset()
        assert "x" in ds
        assert "ghost" not in ds
        assert [s.sensor_id for s in ds] == ["x", "y"]

    def test_sensors_with_attribute(self):
        ds = _simple_dataset()
        temps = ds.sensors_with_attribute("temperature")
        assert [s.sensor_id for s in temps] == ["x"]

    def test_slice_time(self):
        ds = _simple_dataset(10)
        start = ds.timeline[2]
        end = ds.timeline[7]
        sliced = ds.slice_time(start, end)
        assert sliced.num_timestamps == 5
        assert sliced.timeline[0] == start
        np.testing.assert_array_equal(sliced.values("x"), np.arange(2.0, 7.0))

    def test_slice_time_too_narrow(self):
        ds = _simple_dataset(10)
        with pytest.raises(ValueError, match="two timestamps"):
            ds.slice_time(ds.timeline[3], ds.timeline[3])

    def test_subset(self):
        ds = _simple_dataset()
        sub = ds.subset(["y"])
        assert sub.sensor_ids == ("y",)
        assert sub.num_timestamps == ds.num_timestamps

    def test_describe_matches_paper_table_fields(self):
        row = _simple_dataset().describe()
        assert set(row) >= {"name", "sensors", "records", "attributes", "start", "end"}


class TestEvolvingSet:
    def test_empty(self):
        ev = EvolvingSet.empty()
        assert len(ev) == 0
        assert not ev

    def test_membership_and_direction(self):
        ev = EvolvingSet(np.array([2, 5, 9]), np.array([1, -1, 1], dtype=np.int8))
        assert 5 in ev
        assert 4 not in ev
        assert ev.direction_at(5) == -1
        with pytest.raises(KeyError):
            ev.direction_at(4)

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EvolvingSet(np.array([5, 2]), np.array([1, 1], dtype=np.int8))

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="directions"):
            EvolvingSet(np.array([1]), np.array([0], dtype=np.int8))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            EvolvingSet(np.array([1, 2]), np.array([1], dtype=np.int8))

    def test_intersect(self):
        a = EvolvingSet(np.array([1, 3, 5]), np.array([1, 1, 1], dtype=np.int8))
        b = EvolvingSet(np.array([3, 5, 7]), np.array([1, -1, 1], dtype=np.int8))
        common = bit_indices(a.bits.presence & b.bits.presence)
        np.testing.assert_array_equal(common, [3, 5])

    def test_shift_clips_to_horizon(self):
        ev = EvolvingSet(np.array([1, 8]), np.array([1, 1], dtype=np.int8))
        for delay, expected in ((3, [4]), (-2, [6])):
            moved = ev.indices + delay
            np.testing.assert_array_equal(
                moved[(moved >= 0) & (moved < 10)], expected
            )
            np.testing.assert_array_equal(
                ev.bits.shift(delay, horizon=10).to_indices(), expected
            )

    def test_shift_zero_is_identity(self):
        ev = EvolvingSet(np.array([1, 8]), np.array([-1, 1], dtype=np.int8))
        shifted = ev.bits.shift(0, 10)
        np.testing.assert_array_equal(shifted.to_indices(), ev.indices)
        np.testing.assert_array_equal(shifted.to_directions(), ev.directions)

    def test_arrays_immutable(self):
        ev = EvolvingSet(np.array([1]), np.array([1], dtype=np.int8))
        with pytest.raises(ValueError):
            ev.indices[0] = 5


class TestCAP:
    def _cap(self, **kwargs):
        defaults = dict(
            sensor_ids=frozenset({"a", "b"}),
            attributes=frozenset({"t", "h"}),
            support=3,
            evolving_indices=(1, 4, 7),
        )
        defaults.update(kwargs)
        return CAP(**defaults)

    def test_basic(self):
        cap = self._cap()
        assert cap.size == 2
        assert cap.num_attributes == 2
        assert not cap.is_delayed
        assert cap.key() == ("a", "b")

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError, match="two sensors"):
            self._cap(sensor_ids=frozenset({"a"}))

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            self._cap(support=-1, evolving_indices=())

    def test_indices_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="evolving_indices"):
            self._cap(support=5)

    def test_delayed_flag(self):
        cap = self._cap(delays={"a": 0, "b": 2})
        assert cap.is_delayed

    def test_document_round_trip(self):
        cap = self._cap(delays={"a": 0, "b": 1})
        doc = cap.to_document()
        restored = CAP.from_document(doc)
        assert restored == cap

    def test_document_shape_is_json_friendly(self):
        import json

        doc = self._cap().to_document()
        json.dumps(doc)  # must not raise
        assert doc["sensors"] == ["a", "b"]
        assert doc["support"] == 3
