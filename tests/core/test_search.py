"""Unit tests for the CAP tree search (MISCELA step 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evolving import extract_all_evolving
from repro.core.parameters import MiningParameters
from repro.core.search import filter_maximal, search_component
from repro.core.spatial import build_proximity_graph
from repro.core.types import CAP, EvolvingSet, Sensor, SensorDataset
from tests.conftest import make_timeline, search_caps, step_series


def mine(dataset, params):
    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    return search_caps(list(dataset), adjacency, evolving, params)


class TestTinyGroundTruth:
    def test_finds_exactly_the_planted_caps(self, tiny_dataset, tiny_params):
        caps = mine(tiny_dataset, tiny_params)
        keys = {cap.key() for cap in caps}
        assert keys == {("a", "b"), ("c", "d")}

    def test_supports_match_construction(self, tiny_dataset, tiny_params):
        caps = {cap.key(): cap for cap in mine(tiny_dataset, tiny_params)}
        assert caps[("a", "b")].support == 3
        assert caps[("c", "d")].support == 2

    def test_evolving_indices_recorded(self, tiny_dataset, tiny_params):
        caps = {cap.key(): cap for cap in mine(tiny_dataset, tiny_params)}
        assert caps[("a", "b")].evolving_indices == (3, 7, 12)
        assert caps[("c", "d")].evolving_indices == (5, 9)

    def test_min_support_prunes(self, tiny_dataset, tiny_params):
        caps = mine(tiny_dataset, tiny_params.with_updates(min_support=3))
        assert {cap.key() for cap in caps} == {("a", "b")}

    def test_distance_threshold_disconnects(self, tiny_dataset, tiny_params):
        # a—b are ~110 m apart; shrink eta below that.
        caps = mine(tiny_dataset, tiny_params.with_updates(distance_threshold=0.05))
        assert caps == []

    def test_multi_attribute_restriction(self, tiny_dataset, tiny_params):
        # With the restriction removed, single-attribute sets qualify too —
        # but in tiny_dataset a and c (both temperature) are too far apart,
        # so the result set is unchanged except it is a superset in general.
        caps_multi = mine(tiny_dataset, tiny_params)
        caps_all = mine(tiny_dataset, tiny_params.with_updates(require_multi_attribute=False))
        assert {c.key() for c in caps_multi} <= {c.key() for c in caps_all}


class TestAttributeBounds:
    def _dataset_three_attrs(self):
        """Three co-located, co-evolving sensors with distinct attributes."""
        n = 12
        timeline = make_timeline(n)
        jumps = [2, 5, 8]
        sensors = [
            Sensor("t", "temperature", 43.0, -3.0),
            Sensor("h", "humidity", 43.0005, -3.0),
            Sensor("l", "light", 43.0, -3.0005),
        ]
        measurements = {
            "t": step_series(n, jumps),
            "h": step_series(n, jumps, base=60.0),
            "l": step_series(n, jumps, base=300.0),
        }
        return SensorDataset("three", timeline, sensors, measurements)

    def test_mu_two_blocks_triples(self):
        ds = self._dataset_three_attrs()
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2, min_support=2
        )
        caps = mine(ds, params)
        assert all(cap.num_attributes <= 2 for cap in caps)
        assert {cap.key() for cap in caps} == {("h", "t"), ("l", "t"), ("h", "l")}

    def test_mu_three_allows_triple(self):
        ds = self._dataset_three_attrs()
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=3, min_support=2
        )
        keys = {cap.key() for cap in mine(ds, params)}
        assert ("h", "l", "t") in keys

    def test_max_sensors_bound(self):
        ds = self._dataset_three_attrs()
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=3,
            min_support=2, max_sensors=2,
        )
        caps = mine(ds, params)
        assert all(cap.size <= 2 for cap in caps)


class TestDirectionAware:
    def _dataset_opposite(self):
        """Two sensors that always move in opposite directions."""
        n = 14
        timeline = make_timeline(n)
        up = step_series(n, [3, 6, 10])
        down = 200.0 - up  # mirrored: decreases when `up` increases
        sensors = [
            Sensor("u", "temperature", 43.0, -3.0),
            Sensor("v", "humidity", 43.0005, -3.0),
        ]
        return SensorDataset("opp", timeline, sensors, {"u": up, "v": down})

    def test_direction_agnostic_counts_opposites(self):
        ds = self._dataset_opposite()
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2, min_support=3
        )
        caps = mine(ds, params)
        assert len(caps) == 1
        assert caps[0].support == 3

    def test_direction_aware_keeps_consistent_opposites(self):
        # Opposite but *consistently* opposite still counts (relative
        # orientation −1 at every shared timestamp).
        ds = self._dataset_opposite()
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2,
            min_support=3, direction_aware=True,
        )
        caps = mine(ds, params)
        assert len(caps) == 1
        assert caps[0].support == 3

    def test_direction_aware_drops_inconsistent(self):
        """Mixed same/opposite movements split the support."""
        n = 14
        timeline = make_timeline(n)
        a = step_series(n, [2, 5, 8, 11])  # all increases
        b = np.full(n, 50.0)
        # b moves with a at 2 and 5 (up), against it at 8 and 11 (down).
        level = 50.0
        for i in range(1, n):
            if i in (2, 5):
                level += 5.0
            elif i in (8, 11):
                level -= 5.0
            b[i] = level
        ds = SensorDataset(
            "mixed", timeline,
            [Sensor("a", "x", 43.0, -3.0), Sensor("b", "y", 43.0005, -3.0)],
            {"a": a, "b": b},
        )
        agnostic = mine(ds, MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2, min_support=2))
        aware = mine(ds, MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2,
            min_support=2, direction_aware=True))
        assert agnostic[0].support == 4
        assert aware[0].support == 2  # the best consistent orientation


class TestSearchComponentDirect:
    def test_isolated_component_yields_nothing(self):
        evolving = {"a": EvolvingSet(np.array([1, 2]), np.array([1, 1], dtype=np.int8))}
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2, min_support=1
        )
        caps = search_component({"a"}, {"a": set()}, {"a": "t"}, evolving, params)
        assert caps == []

    def test_seed_below_support_pruned(self):
        evolving = {
            "a": EvolvingSet(np.array([1]), np.array([1], dtype=np.int8)),
            "b": EvolvingSet(np.array([1, 2, 3]), np.array([1, 1, 1], dtype=np.int8)),
        }
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=2, min_support=2
        )
        adjacency = {"a": {"b"}, "b": {"a"}}
        caps = search_component(
            {"a", "b"}, adjacency, {"a": "t", "b": "h"}, evolving, params
        )
        assert caps == []


class TestFilterMaximal:
    def _cap(self, ids, support=5):
        return CAP(
            sensor_ids=frozenset(ids),
            attributes=frozenset({"t", "h"}),
            support=support,
        )

    def test_subset_removed(self):
        small = self._cap({"a", "b"})
        big = self._cap({"a", "b", "c"})
        assert filter_maximal([small, big]) == [big]

    def test_incomparable_kept(self):
        one = self._cap({"a", "b"})
        two = self._cap({"c", "d"})
        assert set(c.key() for c in filter_maximal([one, two])) == {("a", "b"), ("c", "d")}

    def test_equal_sets_kept_once_each(self):
        # Same sensor set twice (e.g. direction variants) — both stay since
        # neither is a *strict* subset.
        one = self._cap({"a", "b"}, support=5)
        two = self._cap({"a", "b"}, support=3)
        assert len(filter_maximal([one, two])) == 2

    def test_empty(self):
        assert filter_maximal([]) == []
