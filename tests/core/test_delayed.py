"""Unit tests for time-delayed CAP mining (DPD 2020 extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delayed import delayed_support
from repro.core.evolving import extract_all_evolving
from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from tests.conftest import search_caps
from repro.core.spatial import build_proximity_graph
from repro.core.types import EvolvingSet, Sensor, SensorDataset
from tests.conftest import make_timeline, step_series


def lagged_dataset(lag: int, n: int = 20) -> SensorDataset:
    """Sensor q reacts exactly ``lag`` steps after sensor p."""
    timeline = make_timeline(n)
    p_jumps = [3, 8, 13]
    q_jumps = [j + lag for j in p_jumps]
    sensors = [
        Sensor("p", "temperature", 43.0, -3.0),
        Sensor("q", "traffic_volume", 43.0005, -3.0),
    ]
    measurements = {
        "p": step_series(n, p_jumps),
        "q": step_series(n, q_jumps, base=100.0),
    }
    return SensorDataset("lagged", timeline, sensors, measurements)


def run_delayed(dataset, params):
    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    return search_caps(list(dataset), adjacency, evolving, params)


def params_with_delay(delta: int, psi: int = 3) -> MiningParameters:
    return MiningParameters(
        evolving_rate=1.0, distance_threshold=1.0, max_attributes=2,
        min_support=psi, max_delay=delta,
    )


class TestDelayedSupport:
    def test_known_lag(self):
        ds = lagged_dataset(lag=2)
        params = params_with_delay(2)
        evolving = extract_all_evolving(ds, params)
        common = delayed_support(evolving, {"p": 0, "q": 2}, ds.num_timestamps)
        np.testing.assert_array_equal(common, [3, 8, 13])

    def test_wrong_lag_empty(self):
        ds = lagged_dataset(lag=2)
        params = params_with_delay(2)
        evolving = extract_all_evolving(ds, params)
        assert delayed_support(evolving, {"p": 0, "q": 1}, ds.num_timestamps).size == 0

    def test_empty_mapping(self):
        assert delayed_support({}, {}, 10).size == 0


class TestSearchDelayed:
    def test_simultaneous_misses_lagged_pattern(self):
        ds = lagged_dataset(lag=2)
        simultaneous = MiscelaMiner(params_with_delay(0).with_updates(max_delay=0)).mine(ds)
        assert simultaneous.caps == []

    def test_delayed_finds_lagged_pattern(self):
        ds = lagged_dataset(lag=2)
        caps = run_delayed(ds, params_with_delay(2))
        assert len(caps) == 1
        cap = caps[0]
        assert cap.key() == ("p", "q")
        assert cap.support == 3
        assert cap.is_delayed
        assert cap.delays == {"p": 0, "q": 2}

    def test_delta_too_small_misses(self):
        ds = lagged_dataset(lag=3)
        caps = run_delayed(ds, params_with_delay(2))
        assert caps == []

    def test_seed_lagging_is_found(self):
        # Pattern where the lexicographically-first sensor is the LATE one:
        # rename so the seed (min id) lags.
        n = 20
        timeline = make_timeline(n)
        jumps = [4, 9, 14]
        sensors = [
            Sensor("a", "temperature", 43.0, -3.0),    # a reacts LATER
            Sensor("b", "traffic_volume", 43.0005, -3.0),
        ]
        measurements = {
            "a": step_series(n, [j + 2 for j in jumps]),
            "b": step_series(n, jumps, base=100.0),
        }
        ds = SensorDataset("seedlag", timeline, sensors, measurements)
        caps = run_delayed(ds, params_with_delay(2))
        assert len(caps) == 1
        assert caps[0].delays == {"a": 2, "b": 0}  # normalised, min delay 0

    def test_zero_delta_equals_simultaneous_search(self, tiny_dataset, tiny_params):
        evolving = extract_all_evolving(tiny_dataset, tiny_params)
        adjacency = build_proximity_graph(list(tiny_dataset), tiny_params.distance_threshold)
        simultaneous = search_caps(list(tiny_dataset), adjacency, evolving, tiny_params)
        delayed = search_caps(
            list(tiny_dataset), adjacency, evolving,
            tiny_params.with_updates(max_delay=0),
        )
        assert {(c.key(), c.support) for c in simultaneous} == {
            (c.key(), c.support) for c in delayed
        }

    def test_direction_aware_rejected(self):
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2,
            min_support=1, max_delay=1, direction_aware=True,
        )
        ds = lagged_dataset(lag=1)
        with pytest.raises(NotImplementedError):
            run_delayed(ds, params)

    def test_miner_facade_routes_to_delayed(self):
        ds = lagged_dataset(lag=2)
        result = MiscelaMiner(params_with_delay(2)).mine(ds)
        assert len(result.caps) == 1
        assert result.caps[0].is_delayed
