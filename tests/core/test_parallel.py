"""Step 4's contract: any execution path, identical CAPs.

``MiningParameters.n_jobs`` and a ``MiningControl`` select an execution,
never a result: these tests hold :mod:`repro.core.parallel` to
byte-identical CAP lists (same order, same supports, same evolving indices
and delays) across the plain, controlled, pooled and in-process
distributed paths for every search mode — simultaneous, direction-aware,
and delayed — plus the degenerate shapes the sharder must survive
(nothing but isolated sensors, and one giant component that forces the
seed-split path).  The shard planner and the bitmap-only pickle of an
evolving set get unit tests of their own.
"""

from __future__ import annotations

import pickle
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import naive_search
from repro.core.bitset import BitsetEvolvingSet
from repro.core.evolving import extract_all_evolving
from repro.core.miner import MiscelaMiner, MiningResult
from repro.core.parallel import (
    MiningCancelled,
    MiningControl,
    plan_shards,
    resolve_jobs,
)
from repro.core.parameters import MiningParameters
from repro.core.result_columns import result_to_columns
from repro.core.search import search_all
from repro.core.spatial import build_proximity_graph, connected_components
from repro.core.types import EvolvingSet, Sensor, SensorDataset
from repro.jobs.planner import execute_units, merge_outputs, plan_mine


def cap_fingerprint(caps):
    return [
        (sorted(c.sensor_ids), sorted(c.attributes), c.support,
         c.evolving_indices, dict(sorted(c.delays.items())))
        for c in caps
    ]


def random_dataset(seed: int, n_clusters: int = 3, cluster_size: int = 4,
                   n_steps: int = 90) -> SensorDataset:
    """Several ~200 m clusters spaced ~20 km apart (one component each)."""
    rng = np.random.default_rng(seed)
    attributes = ["t", "h", "p"]
    sensors, measurements = [], {}
    for cluster in range(n_clusters):
        base_lat = 43.0 + 0.2 * cluster
        driver = np.where(
            rng.random(n_steps) < 0.35, rng.choice([-4.0, 4.0], size=n_steps), 0.0
        ).cumsum()
        for k in range(cluster_size):
            sid = f"c{cluster}s{k}"
            attribute = attributes[int(rng.integers(len(attributes)))]
            sensors.append(
                Sensor(sid, attribute,
                       base_lat + float(rng.uniform(0, 0.002)),
                       -3.0 + float(rng.uniform(0, 0.002)))
            )
            private = np.where(
                rng.random(n_steps) < 0.15, rng.choice([-4.0, 4.0], size=n_steps), 0.0
            ).cumsum()
            measurements[sid] = driver + private + rng.normal(0, 0.1, n_steps)
    timeline = [datetime(2024, 1, 1) + i * timedelta(hours=1) for i in range(n_steps)]
    return SensorDataset(f"par-{seed}", timeline, sensors, measurements)


def engine_runs(dataset: SensorDataset, params: MiningParameters) -> dict:
    """The same mine through every other step-4 path, keyed by path.

    Controlled in-process and controlled pooled runs of ``MiscelaMiner``,
    and the distributed path run in this process: ``plan_mine`` at two
    planning widths, ``execute_units`` per shard in reverse order, then
    ``merge_outputs``.
    """
    runs = {
        "controlled serial": MiscelaMiner(params).mine(
            dataset, control=MiningControl()
        ).caps,
        "controlled pool n_jobs=3": MiscelaMiner(
            params.with_updates(n_jobs=3)
        ).mine(dataset, control=MiningControl()).caps,
    }
    for plan_workers in (1, 3):
        plan = plan_mine(dataset, params, plan_workers=plan_workers)
        outputs = []
        for shard in reversed(plan.shard_documents):
            outputs += execute_units(dataset, params, shard)
        runs[f"distributed plan_workers={plan_workers}"] = merge_outputs(outputs)
    return runs


def assert_every_engine_matches(dataset, params, serial) -> None:
    for path, caps in engine_runs(dataset, params).items():
        assert cap_fingerprint(caps) == cap_fingerprint(serial), path


def base_params(**overrides) -> MiningParameters:
    defaults = dict(
        evolving_rate=2.0, distance_threshold=1.0,
        max_attributes=3, min_support=3,
    )
    defaults.update(overrides)
    return MiningParameters(**defaults)


class TestResolveJobs:
    def test_explicit_counts_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_means_available_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_jobs(-1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_jobs"):
            base_params(n_jobs=-2)


class TestParametersSerialisation:
    def test_n_jobs_excluded_from_document(self):
        """n_jobs never changes the result, so it must not split cache keys."""
        doc = base_params(n_jobs=4).to_document()
        assert "n_jobs" not in doc
        assert doc == base_params().to_document()

    def test_n_jobs_accepted_by_from_document(self):
        doc = base_params().to_document()
        doc["n_jobs"] = 4
        assert MiningParameters.from_document(doc).n_jobs == 4


class TestEvolvingSetPickle:
    """A spawned pool worker gets each evolving set as its bitmap alone."""

    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 63, 64, 65, 130):
            indices = np.flatnonzero(rng.random(n) < 0.4).astype(np.int64)
            directions = rng.choice(np.array([-1, 1], dtype=np.int8), size=indices.size)
            original = EvolvingSet(indices, directions)
            rebuilt = pickle.loads(pickle.dumps(original))
            np.testing.assert_array_equal(rebuilt.indices, original.indices)
            np.testing.assert_array_equal(rebuilt.directions, original.directions)
            assert not rebuilt.indices.flags.writeable
            assert not rebuilt.directions.flags.writeable
            assert rebuilt.bits.presence == original.bits.presence
            assert rebuilt.bits.dirs == original.bits.dirs
            assert rebuilt.bits.horizon == original.bits.horizon

    def test_unpickled_set_carries_the_pickled_bitmap(self, monkeypatch):
        """Workers search on the carried bitmap, never a re-pack: a bitmap
        grown past the last index (as the streaming miner's are) keeps its
        horizon, and packing is not called at all."""
        head = EvolvingSet(np.array([1, 5]), np.array([1, -1], dtype=np.int8))
        head.bits  # built, so the append grows it instead of packing anew
        grown = head.append(
            EvolvingSet(np.array([3]), np.array([1], dtype=np.int8)), 67, 200
        )
        payload = pickle.dumps(grown)

        def no_repack(*args, **kwargs):
            raise AssertionError("the unpickled set re-packed its bitmap")

        monkeypatch.setattr(BitsetEvolvingSet, "from_arrays", no_repack)
        rebuilt = pickle.loads(payload)
        assert rebuilt.indices.tolist() == [1, 5, 70]
        assert rebuilt.directions.tolist() == [1, -1, 1]
        assert rebuilt.bits.presence == grown.bits.presence
        assert rebuilt.bits.dirs == grown.bits.dirs
        assert rebuilt.bits.horizon == grown.bits.horizon == 200


class TestShardPlanner:
    def _inputs(self, dataset, params):
        evolving = extract_all_evolving(dataset, params)
        adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
        components = [
            sorted(c) for c in connected_components(adjacency) if len(c) >= 2
        ]
        return adjacency, evolving, components

    def test_units_cover_every_component_exactly_once(self):
        dataset = random_dataset(1, n_clusters=4)
        params = base_params()
        adjacency, evolving, components = self._inputs(dataset, params)
        shards = plan_shards(components, adjacency, evolving, params, n_workers=3)
        seen_components = {}
        for shard in shards:
            for unit in shard:
                if unit.seeds is None:
                    assert unit.component_index not in seen_components
                    seen_components[unit.component_index] = set(
                        components[unit.component_index]
                    )
                else:
                    seen_components.setdefault(unit.component_index, set()).update(
                        unit.seeds
                    )
        assert {
            ci: set(component) for ci, component in enumerate(components)
        } == seen_components

    def test_giant_component_is_seed_split(self):
        dataset = random_dataset(2, n_clusters=1, cluster_size=10)
        params = base_params()
        adjacency, evolving, components = self._inputs(dataset, params)
        assert len(components) == 1
        shards = plan_shards(components, adjacency, evolving, params, n_workers=4)
        units = [unit for shard in shards for unit in shard]
        assert len(units) > 1
        assert all(unit.seeds is not None for unit in units)
        # The split is a partition of the component in rank runs.
        all_seeds = [sid for unit in sorted(units, key=lambda u: u.tag)
                     for sid in unit.seeds]
        assert all_seeds == components[0]

    def test_loads_are_balanced_not_round_robin(self):
        dataset = random_dataset(3, n_clusters=6, cluster_size=5)
        params = base_params()
        adjacency, evolving, components = self._inputs(dataset, params)
        shards = plan_shards(components, adjacency, evolving, params, n_workers=3)
        loads = [sum(unit.cost for unit in shard) for shard in shards]
        biggest_unit = max(
            unit.cost for shard in shards for unit in shard
        )
        # Greedy LPT bound: no shard exceeds the fair share by more than
        # one unit.
        assert max(loads) <= sum(loads) / len(loads) + biggest_unit + 1e-9


class TestShardPlannerProperties:
    """Invariants the distributed job planner's correctness rests on.

    A shard plan that drops, duplicates, or reorders a seed silently
    corrupts a distributed mine (dropped CAPs or double-counted ones that
    only dedup hides), and a plan that differs between the planning attempt
    and a post-crash replanning attempt breaks
    ``repro.jobs.distributed.finish_planning``'s idempotent-replan contract.  So:
    for any input, planning is a pure function and the units partition
    every component's seed set exactly once.
    """

    @staticmethod
    def _fingerprint(shards):
        return [
            [
                (u.component_index,
                 None if u.seeds is None else tuple(u.seeds),
                 u.first_rank)
                for u in shard
            ]
            for shard in shards
        ]

    @given(
        seed=st.integers(min_value=0, max_value=40),
        n_clusters=st.integers(min_value=1, max_value=5),
        cluster_size=st.integers(min_value=2, max_value=8),
        n_workers=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_deterministic_and_partitions_every_seed_exactly_once(
        self, seed, n_clusters, cluster_size, n_workers
    ):
        dataset = random_dataset(
            seed, n_clusters=n_clusters, cluster_size=cluster_size, n_steps=40
        )
        params = base_params()
        evolving = extract_all_evolving(dataset, params)
        adjacency = build_proximity_graph(
            list(dataset), params.distance_threshold
        )
        components = [
            sorted(c) for c in connected_components(adjacency) if len(c) >= 2
        ]
        shards = plan_shards(
            components, adjacency, evolving, params, n_workers=n_workers
        )
        replay = plan_shards(
            components, adjacency, evolving, params, n_workers=n_workers
        )
        # Pure function: a replanning attempt reproduces the plan bit for bit.
        assert self._fingerprint(shards) == self._fingerprint(replay)
        # Exactly-once partition, counted with multiplicity: a seed assigned
        # to two units would be mined twice, one assigned to none never.
        assigned: list[tuple[int, str]] = []
        for shard in shards:
            for unit in shard:
                members = (
                    components[unit.component_index]
                    if unit.seeds is None
                    else unit.seeds
                )
                assigned.extend((unit.component_index, sid) for sid in members)
        expected = [
            (ci, sid)
            for ci, component in enumerate(components)
            for sid in component
        ]
        assert sorted(assigned) == sorted(expected)


class TestParallelEquivalence:
    """n_jobs=1 and n_jobs=4 must produce identical CAP lists."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simultaneous(self, seed):
        dataset = random_dataset(seed)
        params = base_params()
        serial = MiscelaMiner(params).mine(dataset).caps
        parallel = MiscelaMiner(params.with_updates(n_jobs=4)).mine(dataset).caps
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)
        assert_every_engine_matches(dataset, params, serial)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_direction_aware(self, seed):
        dataset = random_dataset(seed)
        params = base_params(direction_aware=True)
        serial = MiscelaMiner(params).mine(dataset).caps
        parallel = MiscelaMiner(params.with_updates(n_jobs=4)).mine(dataset).caps
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)
        assert_every_engine_matches(dataset, params, serial)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("delta", [1, 2])
    def test_delayed(self, seed, delta):
        dataset = random_dataset(seed, n_clusters=2, cluster_size=3)
        params = base_params(max_delay=delta)
        serial = MiscelaMiner(params).mine(dataset).caps
        parallel = MiscelaMiner(params.with_updates(n_jobs=4)).mine(dataset).caps
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)
        assert_every_engine_matches(dataset, params, serial)

    def test_naive_baseline(self):
        """The naive oracle is serial-only: its output ignores n_jobs."""
        dataset = random_dataset(5, n_clusters=3, cluster_size=4)
        params = base_params()
        evolving = extract_all_evolving(dataset, params)
        adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
        serial = naive_search(list(dataset), adjacency, evolving, params)
        parallel = naive_search(
            list(dataset), adjacency, evolving, params.with_updates(n_jobs=3)
        )
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)

    def test_naive_oversized_component_still_raises(self):
        dataset = random_dataset(2, n_clusters=1, cluster_size=10)
        params = base_params(n_jobs=3)
        evolving = extract_all_evolving(dataset, params)
        adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
        with pytest.raises(ValueError, match="exceeds the naive"):
            naive_search(
                list(dataset), adjacency, evolving, params, max_component_size=4
            )

    def test_n_jobs_zero_uses_all_cores(self):
        dataset = random_dataset(0)
        params = base_params()
        serial = MiscelaMiner(params).mine(dataset).caps
        parallel = MiscelaMiner(params.with_updates(n_jobs=0)).mine(dataset).caps
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)


class TestEdgeShapes:
    def test_only_isolated_sensors(self):
        """No component reaches size 2: the engine must return [] quietly."""
        n = 30
        timeline = [datetime(2024, 1, 1) + i * timedelta(hours=1) for i in range(n)]
        sensors = [
            Sensor(f"s{i}", "t", 40.0 + i, -3.0) for i in range(4)
        ]
        values = np.where(np.arange(n) % 3 == 0, 5.0, 0.0).cumsum()
        dataset = SensorDataset(
            "isolated", timeline, sensors,
            {s.sensor_id: values.copy() for s in sensors},
        )
        params = base_params(n_jobs=4)
        assert MiscelaMiner(params).mine(dataset).caps == []
        assert MiscelaMiner(params.with_updates(max_delay=1)).mine(dataset).caps == []

    def test_single_giant_component_seed_split_path(self):
        """One component, many seeds: the root-branch split must be exact."""
        dataset = random_dataset(7, n_clusters=1, cluster_size=12, n_steps=80)
        params = base_params(max_sensors=4)
        adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
        assert len([c for c in connected_components(adjacency) if len(c) >= 2]) == 1
        serial = MiscelaMiner(params).mine(dataset).caps
        parallel = MiscelaMiner(params.with_updates(n_jobs=4)).mine(dataset).caps
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)

    def test_empty_evolving_sets_cross_the_boundary(self):
        n = 70
        timeline = [datetime(2024, 1, 1) + i * timedelta(hours=1) for i in range(n)]
        active = np.where(np.arange(n) % 4 == 0, 5.0, 0.0).cumsum()
        sensors = [
            Sensor("a", "t", 43.0, -3.0),
            Sensor("b", "h", 43.0001, -3.0),
            Sensor("c", "p", 43.0002, -3.0),
        ]
        measurements = {
            "a": active, "b": active.copy(), "c": np.zeros(n),  # c never evolves
        }
        dataset = SensorDataset("empty-set", timeline, sensors, measurements)
        params = base_params(min_support=2)
        serial = MiscelaMiner(params).mine(dataset).caps
        parallel = MiscelaMiner(params.with_updates(n_jobs=2)).mine(dataset).caps
        assert cap_fingerprint(serial) == cap_fingerprint(parallel)
        assert serial  # a+b must co-evolve


class TestMiningResultIndex:
    def test_caps_containing_matches_linear_scan(self):
        dataset = random_dataset(1)
        params = base_params()
        result = MiscelaMiner(params).mine(dataset)
        assert result.caps
        for sid in dataset.sensor_ids:
            indexed = result.caps_containing(sid)
            scanned = [cap for cap in result.caps if sid in cap.sensor_ids]
            assert indexed == scanned

    def test_index_survives_document_round_trip(self):
        dataset = random_dataset(1)
        result = MiscelaMiner(base_params()).mine(dataset)
        replayed = MiningResult.from_document(result_to_columns(result))
        sid = next(iter(result.caps[0].sensor_ids))
        assert cap_fingerprint(replayed.caps_containing(sid)) == cap_fingerprint(
            result.caps_containing(sid)
        )


class TestMiningControl:
    """The control hooks: identical CAPs, monotone progress, prompt cancel."""

    def test_serial_control_path_identical(self):
        dataset = random_dataset(3)
        params = base_params()  # n_jobs=1: the in-process component loop
        plain = MiscelaMiner(params).mine(dataset).caps
        ticks: list[tuple[int, int]] = []
        controlled = MiscelaMiner(params).mine(
            dataset, control=MiningControl(progress=lambda d, t: ticks.append((d, t)))
        ).caps
        assert cap_fingerprint(plain) == cap_fingerprint(controlled)
        # One tick per component, counting up to completion.
        assert ticks == [(i + 1, len(ticks)) for i in range(len(ticks))]
        assert ticks[-1][0] == ticks[-1][1]

    def test_pooled_control_path_identical(self):
        dataset = random_dataset(3)
        params = base_params()
        plain = MiscelaMiner(params).mine(dataset).caps
        ticks: list[tuple[int, int]] = []
        controlled = MiscelaMiner(params.with_updates(n_jobs=4)).mine(
            dataset, control=MiningControl(progress=lambda d, t: ticks.append((d, t)))
        ).caps
        assert cap_fingerprint(plain) == cap_fingerprint(controlled)
        assert ticks and ticks[-1][0] == ticks[-1][1]
        assert [d for d, _t in ticks] == list(range(1, len(ticks) + 1))

    def test_delayed_control_path_identical(self):
        dataset = random_dataset(1, n_clusters=2, cluster_size=3)
        params = base_params(max_delay=1)
        plain = MiscelaMiner(params).mine(dataset).caps
        controlled = MiscelaMiner(params).mine(
            dataset, control=MiningControl(progress=lambda d, t: None)
        ).caps
        assert cap_fingerprint(plain) == cap_fingerprint(controlled)

    def test_direction_aware_delayed_raises_under_a_control(self):
        """The controlled path must not skip the unsupported-mode guard."""
        dataset = random_dataset(1, n_clusters=2, cluster_size=3)
        params = base_params(max_delay=1, direction_aware=True)
        for n_jobs in (1, 3):
            with pytest.raises(NotImplementedError, match="direction-aware"):
                MiscelaMiner(params.with_updates(n_jobs=n_jobs)).mine(
                    dataset, control=MiningControl()
                )

    def test_direction_aware_delayed_raises_in_a_shard_sub_job(self):
        dataset = random_dataset(1, n_clusters=2, cluster_size=3)
        params = base_params(max_delay=1)
        plan = plan_mine(dataset, params, plan_workers=2)
        with pytest.raises(NotImplementedError, match="direction-aware"):
            execute_units(
                dataset, params.with_updates(direction_aware=True),
                plan.shard_documents[0],
            )

    def test_cancellation_raises(self):
        dataset = random_dataset(3)
        control = MiningControl(should_cancel=lambda: True)
        with pytest.raises(MiningCancelled):
            MiscelaMiner(base_params()).mine(dataset, control=control)

    def test_cancellation_mid_run_stops_between_components(self):
        dataset = random_dataset(3)
        seen: list[int] = []

        def progress(done: int, total: int) -> None:
            seen.append(done)

        control = MiningControl(
            progress=progress, should_cancel=lambda: len(seen) >= 1
        )
        with pytest.raises(MiningCancelled):
            MiscelaMiner(base_params()).mine(dataset, control=control)
        assert len(seen) == 1  # stopped at the first post-component checkpoint
