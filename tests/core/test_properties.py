"""Property-based tests (hypothesis) for the mining core.

These pin down the invariants the reproduction's claims rest on:

* evolving-set extraction is monotone in ε and respects the threshold;
* segmentation honours its error budget and reconstruction is faithful;
* the tree search equals the exhaustive oracle on arbitrary small inputs;
* supports are anti-monotone under sensor-set extension;
* the proximity grid index equals brute force.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import naive_search
from repro.core.evolving import extract_evolving
from repro.core.parameters import MiningParameters
from tests.conftest import search_caps
from repro.core.segmentation import (
    bottom_up_segmentation,
    reconstruct,
    sliding_window_segmentation,
    top_down_segmentation,
)
from repro.core.spatial import build_proximity_graph
from repro.core.types import Sensor, SensorDataset
from tests.conftest import make_timeline

# -- strategies ---------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

series_strategy = st.lists(finite_floats, min_size=2, max_size=60).map(
    lambda xs: np.array(xs, dtype=np.float64)
)


@st.composite
def small_mining_instance(draw):
    """A random dataset + parameters small enough for the naive oracle."""
    n_sensors = draw(st.integers(min_value=2, max_value=6))
    n_steps = draw(st.integers(min_value=4, max_value=24))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    attributes = ["t", "h", "p"]
    sensors = []
    measurements = {}
    for i in range(n_sensors):
        attribute = attributes[int(rng.integers(len(attributes)))]
        lat = 43.0 + float(rng.uniform(0, 0.02))
        lon = -3.0 + float(rng.uniform(0, 0.02))
        sensors.append(Sensor(f"s{i}", attribute, lat, lon))
        steps = np.where(
            rng.random(n_steps) < 0.4, rng.choice([-4.0, 4.0], size=n_steps), 0.0
        )
        steps[0] = 0.0
        measurements[f"s{i}"] = np.cumsum(steps)
    dataset = SensorDataset("prop", make_timeline(n_steps), sensors, measurements)
    psi = draw(st.integers(min_value=1, max_value=4))
    direction_aware = draw(st.booleans())
    params = MiningParameters(
        evolving_rate=2.0,
        distance_threshold=draw(st.sampled_from([0.5, 1.0, 3.0])),
        max_attributes=draw(st.integers(min_value=2, max_value=3)),
        min_support=psi,
        direction_aware=direction_aware,
    )
    return dataset, params


# -- evolving extraction --------------------------------------------------------


@given(series_strategy, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_evolving_threshold_respected(values, eps):
    ev = extract_evolving(values, eps)
    deltas = np.diff(values)
    for index, direction in zip(ev.indices, ev.directions):
        delta = deltas[index - 1]
        if eps == 0.0:
            assert abs(delta) > 0
        else:
            assert abs(delta) >= eps
        assert np.sign(delta) == direction


@given(series_strategy, st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
def test_evolving_monotone_in_epsilon(values, e1, e2):
    lo, hi = min(e1, e2), max(e1, e2)
    assert len(extract_evolving(values, hi)) <= len(extract_evolving(values, lo))


@given(series_strategy)
def test_evolving_indices_within_range(values):
    ev = extract_evolving(values, 1.0)
    if len(ev):
        assert ev.indices.min() >= 1
        assert ev.indices.max() < values.shape[0]


# -- segmentation -----------------------------------------------------------------


@given(series_strategy, st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=60)
def test_segmentation_error_budget_all_algorithms(values, budget):
    for algorithm in (
        sliding_window_segmentation,
        bottom_up_segmentation,
        top_down_segmentation,
    ):
        for seg in algorithm(values, budget):
            idx = np.arange(seg.start, seg.end + 1)
            approx = seg.value_start + seg.slope * (idx - seg.start)
            assert np.max(np.abs(values[idx] - approx)) <= budget + 1e-6


@given(series_strategy, st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=60)
def test_segmentation_covers_everything(values, budget):
    segs = bottom_up_segmentation(values, budget)
    rebuilt = reconstruct(segs, values.shape[0])
    assert not np.any(np.isnan(rebuilt))
    # Endpoints of every segment are the data values (up to float error in
    # the slope round-trip).
    for seg in segs:
        scale = max(1.0, abs(values[seg.start]), abs(values[seg.end]))
        assert abs(rebuilt[seg.start] - values[seg.start]) <= 1e-9 * scale
        assert abs(rebuilt[seg.end] - values[seg.end]) <= 1e-9 * scale


# -- search vs oracle ---------------------------------------------------------------


@given(small_mining_instance())
@settings(max_examples=40, deadline=None)
def test_tree_search_equals_oracle(instance):
    dataset, params = instance
    from repro.core.evolving import extract_all_evolving

    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    fast = {(c.key(), c.support) for c in search_caps(list(dataset), adjacency, evolving, params)}
    slow = {(c.key(), c.support) for c in naive_search(list(dataset), adjacency, evolving, params)}
    assert fast == slow


@given(small_mining_instance())
@settings(max_examples=30, deadline=None)
def test_support_anti_monotone(instance):
    dataset, params = instance
    from repro.core.evolving import extract_all_evolving

    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    caps = search_caps(list(dataset), adjacency, evolving, params)
    by_key = {c.key(): c for c in caps}
    for cap in caps:
        for other in caps:
            if cap.sensor_ids < other.sensor_ids:
                assert cap.support >= other.support


@given(small_mining_instance())
@settings(max_examples=30, deadline=None)
def test_caps_satisfy_definition(instance):
    """Every emitted CAP meets all three conditions of Section 2.1."""
    dataset, params = instance
    from repro.core.evolving import extract_all_evolving
    from repro.core.spatial import is_connected

    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    for cap in search_caps(list(dataset), adjacency, evolving, params):
        assert is_connected(adjacency, cap.sensor_ids)          # (1) spatially close
        assert cap.support >= params.min_support                 # (2) co-evolve often
        assert 2 <= cap.num_attributes <= params.max_attributes  # (3) multi-attribute
        attrs = {dataset.sensor(s).attribute for s in cap.sensor_ids}
        assert attrs == set(cap.attributes)
        # The recorded timestamps really are common evolving timestamps.
        for index in cap.evolving_indices:
            for sid in cap.sensor_ids:
                assert index in evolving[sid]


# -- spatial ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-60, max_value=60, allow_nan=False),
            st.floats(min_value=-170, max_value=170, allow_nan=False),
        ),
        min_size=2,
        max_size=25,
    ),
    st.floats(min_value=0.1, max_value=500.0),
)
@settings(max_examples=60)
def test_grid_index_equals_brute_force(coords, eta):
    sensors = [Sensor(f"s{i}", "t", lat, lon) for i, (lat, lon) in enumerate(coords)]
    grid = build_proximity_graph(sensors, eta, "grid")
    brute = build_proximity_graph(sensors, eta, "brute")
    assert grid == brute
