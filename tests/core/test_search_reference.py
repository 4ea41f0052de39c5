"""Every search mode against a plain-Python ``set`` reference.

The one tree search (simultaneous, direction-aware and delayed) runs on
packed bitmaps; :mod:`tests.core.set_reference` restates each CAP
definition over Python sets, and the exhaustive ``naive_search`` works on
sorted index arrays.  Over randomized synthetic datasets these must agree:

* simultaneous — ``search_all``, ``naive_search`` and the reference give
  the same CAPs, down to where each pattern co-evolves;
* direction-aware — the same ``{sensor set: support}``, and every emitted
  CAP's indices are exactly the common timestamps of one orientation;
* delayed (δ = 1, 2, 3) — the same best ``{sensor set: support}`` as a
  brute force over anchored delay assignments, and every emitted CAP's
  delays and indices satisfy the definition (which assignment wins a tie
  is not compared);

plus the helpers, and the edge cases the bit packing must survive (empty
evolving sets, timelines around the 64-bit word boundary, all-NaN and
flat sensors, incrementally appended bitmaps).
"""

from __future__ import annotations

import ast
import math
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import co_evolution_rate
from repro.core.baseline import naive_search
from repro.core.delayed import delayed_support
from repro.core.evolving import co_evolution_count, extract_all_evolving
from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from tests.conftest import search_caps
from repro.core.spatial import build_proximity_graph
from repro.core.streaming import StreamingMiner
from repro.core.types import EvolvingSet, Sensor, SensorDataset
from tests.core import set_reference as ref


def cap_fingerprint(caps):
    """Full identity of a CAP list, including where the patterns co-evolve."""
    return [
        (sorted(c.sensor_ids), sorted(c.attributes), c.support,
         c.evolving_indices, dict(sorted(c.delays.items())))
        for c in caps
    ]


def supports(caps):
    return {cap.key(): cap.support for cap in caps}


@st.composite
def mining_instances(draw):
    """A random dataset + parameters small enough for the brute forces."""
    n_sensors = draw(st.integers(min_value=2, max_value=6))
    # Deliberately straddle the 64-bit word boundary in both directions.
    n_steps = draw(st.sampled_from([8, 30, 63, 64, 65, 100, 130]))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    min_support = draw(st.integers(min_value=1, max_value=3))
    all_nan_sensor = draw(st.booleans())
    # "ring" places the sensors 2 km apart on a circle, so with η = 2.5 km
    # the η-graph is a chordless cycle (paths and 4-cycles, which ESU's
    # extension bookkeeping must get right); the boxes give dense or sparse
    # random graphs.
    layout = draw(st.sampled_from(["ring", 0.005, 0.02, 0.05]))
    rng = np.random.default_rng(rng_seed)
    attributes = ["t", "h", "p"]
    sensors = []
    measurements = {}
    radius_km = 1.0 / math.sin(math.pi / n_sensors)
    for i in range(n_sensors):
        attribute = attributes[int(rng.integers(len(attributes)))]
        if layout == "ring":
            angle = 2 * math.pi * i / n_sensors
            lat = 43.0 + radius_km * math.sin(angle) / 111.2
            lon = -3.0 + radius_km * math.cos(angle) / 81.3
        else:
            lat = 43.0 + float(rng.uniform(0, layout))
            lon = -3.0 + float(rng.uniform(0, layout))
        sensors.append(Sensor(f"s{i}", attribute, lat, lon))
        steps = np.where(
            rng.random(n_steps) < 0.4, rng.choice([-4.0, 4.0], size=n_steps), 0.0
        )
        values = np.cumsum(steps)
        if all_nan_sensor and i == 0:
            values = np.full(n_steps, np.nan)
        measurements[f"s{i}"] = values
    timeline = [
        datetime(2024, 1, 1) + k * timedelta(hours=1) for k in range(n_steps)
    ]
    dataset = SensorDataset("reference", timeline, sensors, measurements)
    params = MiningParameters(
        evolving_rate=2.0,
        distance_threshold=2.5,
        max_attributes=draw(st.integers(min_value=2, max_value=3)),
        min_support=min_support,
        max_sensors=draw(st.sampled_from([None, 2, 3])),
        require_multi_attribute=draw(st.booleans()),
    )
    return dataset, params


def prepare(dataset, params):
    """Step-2/3 outputs plus their plain-data form for the reference."""
    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    events = {
        sid: dict(zip(ev.indices.tolist(), ev.directions.tolist()))
        for sid, ev in evolving.items()
    }
    attributes = {s.sensor_id: s.attribute for s in dataset}
    return evolving, adjacency, events, attributes


def reference_fingerprint(patterns, attributes):
    rows = sorted(patterns.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [
        (list(key), sorted({attributes[sid] for sid in key}), support, indices, {})
        for key, (support, indices) in rows
    ]


class TestSearchReference:
    @given(mining_instances())
    @settings(max_examples=40, deadline=None)
    def test_simultaneous(self, instance):
        dataset, params = instance
        evolving, adjacency, events, attributes = prepare(dataset, params)
        caps = search_caps(list(dataset), adjacency, evolving, params)
        naive = naive_search(list(dataset), adjacency, evolving, params)
        expected = reference_fingerprint(
            ref.simultaneous(events, adjacency, attributes, params), attributes
        )
        assert cap_fingerprint(caps) == cap_fingerprint(naive) == expected

    @given(mining_instances())
    @settings(max_examples=40, deadline=None)
    def test_direction_aware(self, instance):
        dataset, params = instance
        params = params.with_updates(direction_aware=True)
        evolving, adjacency, events, attributes = prepare(dataset, params)
        caps = search_caps(list(dataset), adjacency, evolving, params)
        naive = naive_search(list(dataset), adjacency, evolving, params)
        expected = ref.direction_aware(events, adjacency, attributes, params)
        assert supports(caps) == supports(naive) == expected
        for cap in caps + naive:
            members = cap.key()
            pattern = ref.orientation(events, members, cap.evolving_indices[0])
            assert cap.evolving_indices == tuple(
                sorted(ref.oriented_times(events, members, pattern))
            )

    @given(mining_instances())
    @settings(max_examples=25, deadline=None)
    def test_delayed(self, instance):
        dataset, base = instance
        horizon = dataset.num_timestamps
        for delta in (1, 2, 3):
            params = base.with_updates(max_delay=delta)
            evolving, adjacency, events, attributes = prepare(dataset, params)
            caps = search_caps(list(dataset), adjacency, evolving, params)
            expected = ref.delayed(events, adjacency, attributes, params, horizon)
            assert supports(caps) == expected
            for cap in caps:
                members = cap.key()
                assert set(cap.delays) == set(members)
                assert min(cap.delays.values()) == 0
                assert max(cap.delays.values()) <= delta
                # Indices are reference times of the tree's seed, the
                # smallest sensor id, so delays are taken relative to it.
                seed_delay = cap.delays[members[0]]
                offsets = {sid: d - seed_delay for sid, d in cap.delays.items()}
                assert cap.evolving_indices == tuple(
                    sorted(ref.delayed_times(events, offsets, horizon))
                )

    @given(mining_instances())
    @settings(max_examples=25, deadline=None)
    def test_naive_baseline(self, instance):
        dataset, params = instance
        evolving, adjacency, events, attributes = prepare(dataset, params)
        naive = naive_search(list(dataset), adjacency, evolving, params)
        expected = reference_fingerprint(
            ref.simultaneous(events, adjacency, attributes, params), attributes
        )
        assert cap_fingerprint(naive) == expected

    @given(mining_instances())
    @settings(max_examples=25, deadline=None)
    def test_naive_baseline_direction_aware(self, instance):
        dataset, params = instance
        params = params.with_updates(direction_aware=True)
        evolving, adjacency, events, attributes = prepare(dataset, params)
        naive = naive_search(list(dataset), adjacency, evolving, params)
        assert supports(naive) == ref.direction_aware(
            events, adjacency, attributes, params
        )

    def test_reference_is_independent_of_the_search_stack(self):
        tree = ast.parse(Path(ref.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any(name.startswith("repro") for name in imported), imported
        assert "numpy" not in imported


class TestHelperReference:
    @given(mining_instances())
    @settings(max_examples=25, deadline=None)
    def test_co_evolution_count(self, instance):
        dataset, params = instance
        evolving, _, events, _ = prepare(dataset, params)
        ids = list(dataset.sensor_ids)
        for k in range(1, len(ids) + 1):
            assert co_evolution_count(evolving, ids[:k]) == len(
                ref.common_times(events, tuple(ids[:k]))
            )
        assert co_evolution_count(evolving, []) == 0

    @given(mining_instances())
    @settings(max_examples=25, deadline=None)
    def test_co_evolution_rate(self, instance):
        dataset, params = instance
        evolving, _, events, _ = prepare(dataset, params)
        ids = list(dataset.sensor_ids)
        a, b = set(events[ids[0]]), set(events[ids[-1]])
        union = a | b
        expected = len(a & b) / len(union) if union else 0.0
        assert co_evolution_rate(evolving[ids[0]], evolving[ids[-1]]) == expected

    @given(mining_instances(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_delayed_support(self, instance, delay):
        dataset, params = instance
        evolving, _, events, _ = prepare(dataset, params)
        ids = list(dataset.sensor_ids)
        delays = {sid: (delay if i % 2 else 0) for i, sid in enumerate(ids)}
        horizon = dataset.num_timestamps
        np.testing.assert_array_equal(
            delayed_support(evolving, delays, horizon),
            sorted(ref.delayed_times(events, delays, horizon)),
        )


class TestEdgeCases:
    def _flat_dataset(self, n_steps):
        timeline = [
            datetime(2024, 1, 1) + k * timedelta(hours=1) for k in range(n_steps)
        ]
        sensors = [
            Sensor("a", "t", 43.0, -3.0),
            Sensor("b", "h", 43.0001, -3.0001),
        ]
        measurements = {
            "a": np.zeros(n_steps),
            "b": np.full(n_steps, np.nan),
        }
        return SensorDataset("edge", timeline, sensors, measurements)

    @pytest.mark.parametrize("n_steps", [2, 63, 64, 65, 127, 129])
    def test_empty_and_all_nan_sets(self, n_steps):
        """Flat + all-NaN sensors: no CAPs in any mode."""
        dataset = self._flat_dataset(n_steps)
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=5.0,
            max_attributes=3, min_support=1,
        )
        for mode in ({}, {"direction_aware": True}, {"max_delay": 2}):
            assert MiscelaMiner(params.with_updates(**mode)).mine(dataset).caps == []

    def test_empty_evolving_set_bits(self):
        empty = EvolvingSet.empty()
        assert empty.bits.count() == 0
        assert co_evolution_rate(empty, empty) == 0.0

    @pytest.mark.parametrize("n_steps", [63, 64, 65, 130])
    def test_word_boundary_timelines(self, n_steps):
        """Evolutions at the last timeline step survive the packing."""
        timeline = [
            datetime(2024, 1, 1) + k * timedelta(hours=1) for k in range(n_steps)
        ]
        values = np.zeros(n_steps)
        values[-1] = 10.0  # single evolution at the final index
        sensors = [
            Sensor("a", "t", 43.0, -3.0),
            Sensor("b", "h", 43.0001, -3.0001),
        ]
        measurements = {"a": values, "b": values.copy()}
        dataset = SensorDataset("boundary", timeline, sensors, measurements)
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=5.0,
            max_attributes=3, min_support=1,
        )
        evolving, adjacency, events, attributes = prepare(dataset, params)
        expected = reference_fingerprint(
            ref.simultaneous(events, adjacency, attributes, params), attributes
        )
        for mode in ({}, {"direction_aware": True}, {"max_delay": 1}):
            caps = MiscelaMiner(params.with_updates(**mode)).mine(dataset).caps
            assert len(caps) == 1
            assert caps[0].evolving_indices == (n_steps - 1,)
            if not mode:
                assert cap_fingerprint(caps) == expected

    def test_streaming_incremental_bits_match_batch(self):
        """After extends, the incrementally-appended bitmaps equal a re-pack."""
        rng = np.random.default_rng(7)
        n0, batch = 70, 40
        timeline = [
            datetime(2024, 1, 1) + k * timedelta(hours=1) for k in range(n0)
        ]
        sensors = [
            Sensor("a", "t", 43.0, -3.0),
            Sensor("b", "h", 43.0001, -3.0001),
        ]
        series = {
            sid: np.cumsum(rng.choice([-3.0, 0.0, 3.0], size=n0 + 2 * batch))
            for sid in ("a", "b")
        }
        dataset = SensorDataset(
            "stream", timeline, sensors, {sid: v[:n0] for sid, v in series.items()}
        )
        params = MiningParameters(
            evolving_rate=2.0, distance_threshold=5.0,
            max_attributes=3, min_support=1,
        )
        miner = StreamingMiner(params, dataset)
        start = timeline[-1]
        for step in range(2):
            lo = n0 + step * batch
            batch_timeline = [
                start + (step * batch + k + 1) * timedelta(hours=1)
                for k in range(batch)
            ]
            miner.extend(
                batch_timeline,
                {sid: v[lo : lo + batch] for sid, v in series.items()},
            )
        for sid in ("a", "b"):
            es = miner._evolving[sid]
            np.testing.assert_array_equal(es.bits.to_indices(), es.indices)
            np.testing.assert_array_equal(es.bits.to_directions(), es.directions)
        # And the mined result equals a batch miner over the full series.
        batch_result = MiscelaMiner(params).mine(miner.dataset())
        assert cap_fingerprint(miner.mine().caps) == cap_fingerprint(
            batch_result.caps
        )
