"""Baseline-vs-MISCELA equivalence tests.

The naive miner is the correctness oracle: on every dataset where it is
feasible, the tree search must return the identical CAP set (same sensor
sets, same supports, same evolving indices).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import naive_search
from repro.core.evolving import extract_all_evolving
from repro.core.miner import MiscelaMiner, NaiveMiner
from repro.core.parameters import MiningParameters
from tests.conftest import search_caps
from repro.core.spatial import build_proximity_graph
from repro.core.types import Sensor, SensorDataset
from tests.conftest import make_timeline


def random_dataset(seed: int, n_sensors: int = 8, n_steps: int = 30) -> SensorDataset:
    """A random small dataset with clustered sensors and step-ish series."""
    rng = np.random.default_rng(seed)
    timeline = make_timeline(n_steps)
    attributes = ["temperature", "humidity", "pm25"]
    sensors = []
    measurements = {}
    for i in range(n_sensors):
        attribute = attributes[int(rng.integers(len(attributes)))]
        # Two loose clusters so both intra- and inter-component cases occur.
        cluster = i % 2
        lat = 43.0 + cluster * 0.5 + float(rng.uniform(0, 0.01))
        lon = -3.0 + float(rng.uniform(0, 0.01))
        sensors.append(Sensor(f"s{i}", attribute, lat, lon))
        steps = np.where(rng.random(n_steps) < 0.3, rng.choice([-5.0, 5.0], n_steps), 0.0)
        steps[0] = 0.0
        measurements[f"s{i}"] = 20.0 + np.cumsum(steps) + rng.normal(0, 0.1, n_steps)
    return SensorDataset(f"rand{seed}", timeline, sensors, measurements)


def caps_signature(caps):
    return {(cap.key(), cap.support, cap.evolving_indices) for cap in caps}


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_random_datasets(seed):
    ds = random_dataset(seed)
    params = MiningParameters(
        evolving_rate=3.0, distance_threshold=2.0, max_attributes=3, min_support=2
    )
    evolving = extract_all_evolving(ds, params)
    adjacency = build_proximity_graph(list(ds), params.distance_threshold)
    fast = search_caps(list(ds), adjacency, evolving, params)
    slow = naive_search(list(ds), adjacency, evolving, params)
    assert caps_signature(fast) == caps_signature(slow)


@pytest.mark.parametrize("seed", range(4))
def test_equivalence_direction_aware(seed):
    ds = random_dataset(seed, n_sensors=6, n_steps=25)
    params = MiningParameters(
        evolving_rate=3.0, distance_threshold=2.0, max_attributes=3,
        min_support=2, direction_aware=True,
    )
    evolving = extract_all_evolving(ds, params)
    adjacency = build_proximity_graph(list(ds), params.distance_threshold)
    fast = {(c.key(), c.support) for c in search_caps(list(ds), adjacency, evolving, params)}
    slow = {(c.key(), c.support) for c in naive_search(list(ds), adjacency, evolving, params)}
    assert fast == slow


@pytest.mark.parametrize("psi", [1, 2, 4, 8])
def test_equivalence_across_min_support(psi):
    ds = random_dataset(99)
    params = MiningParameters(
        evolving_rate=3.0, distance_threshold=2.0, max_attributes=3, min_support=psi
    )
    evolving = extract_all_evolving(ds, params)
    adjacency = build_proximity_graph(list(ds), params.distance_threshold)
    fast = caps_signature(search_caps(list(ds), adjacency, evolving, params))
    slow = caps_signature(naive_search(list(ds), adjacency, evolving, params))
    assert fast == slow


def test_equivalence_with_max_sensors():
    ds = random_dataset(7)
    params = MiningParameters(
        evolving_rate=3.0, distance_threshold=2.0, max_attributes=3,
        min_support=2, max_sensors=3,
    )
    evolving = extract_all_evolving(ds, params)
    adjacency = build_proximity_graph(list(ds), params.distance_threshold)
    fast = caps_signature(search_caps(list(ds), adjacency, evolving, params))
    slow = caps_signature(naive_search(list(ds), adjacency, evolving, params))
    assert fast == slow


def test_component_size_guard():
    ds = random_dataset(0, n_sensors=10)
    params = MiningParameters(
        evolving_rate=3.0, distance_threshold=2.0, max_attributes=3, min_support=2
    )
    with pytest.raises(ValueError, match="exceeds"):
        NaiveMiner(params, max_component_size=3).mine(ds)


def test_naive_miner_rejects_delay():
    params = MiningParameters(
        evolving_rate=1.0, distance_threshold=1.0, max_attributes=2,
        min_support=1, max_delay=1,
    )
    with pytest.raises(NotImplementedError):
        NaiveMiner(params)


def test_miners_agree_on_tiny(tiny_dataset, tiny_params):
    fast = MiscelaMiner(tiny_params).mine(tiny_dataset)
    slow = NaiveMiner(tiny_params).mine(tiny_dataset)
    assert caps_signature(fast.caps) == caps_signature(slow.caps)
