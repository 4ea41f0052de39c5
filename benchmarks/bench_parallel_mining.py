"""Parallel engine — serial vs. multi-worker CAP search wall time.

The parallel engine (:mod:`repro.core.parallel`, selected by
``MiningParameters.n_jobs``) shards one mining run by connected component —
splitting oversized components by canonical seed sensor — hands workers the
packed evolving-set buffers zero-copy, and merges deterministically.  This
bench measures the payoff on a **multi-component** configuration: eight
spatial clusters of skewed sizes (40 → 14 sensors), each sharing a jump
driver so its search tree is dense, timed as serial vs. 2 and 4 workers.

Identical output is asserted for every worker count (the engine is an
execution strategy, not an approximation); the measured wall times are
recorded in ``BENCH_parallel_mining.json`` at the repository root.  The
≥ 1.5x speedup assertion at 4 workers only runs when this machine actually
has ≥ 4 usable cores — on smaller machines the numbers are recorded and
the assertion is skipped (CI's 4-vCPU runners enforce it).
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.core.evolving import extract_all_evolving
from repro.core.parallel import resolve_jobs
from repro.core.parameters import MiningParameters
from repro.core.result_columns import ResultTable
from repro.core.search import search_all
from repro.core.spatial import build_proximity_graph, connected_components
from repro.core.types import Sensor, SensorDataset

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_mining.json"

#: Skewed cluster sizes: the greedy cost model has to balance these — naive
#: round-robin would leave one worker holding the 40-sensor cluster alone.
CLUSTER_SIZES = (40, 34, 30, 26, 22, 18, 16, 14)
STEPS = 1280


def _usable_cores() -> int:
    # The engine's own "0 = one worker per CPU" resolution, so the bench's
    # skip decision can never disagree with the pool the engine would size.
    return resolve_jobs(0)


def make_multi_component_dataset(seed: int = 13) -> SensorDataset:
    """Eight far-apart clusters; inside each, sensors share a jump driver.

    Every sensor follows its cluster's ±5 jumps with probability 0.85 (plus
    a few private jumps), so subsets keep high co-evolution support and the
    search tree stays dense.  One humidity sensor per cluster among
    temperature sensors keeps the multi-attribute emission rule selective —
    the tree is *explored* everywhere but only mixed subsets are *emitted*,
    which is what makes the timed region search-dominated rather than
    output-dominated.
    """
    rng = np.random.default_rng(seed)
    sensors: list[Sensor] = []
    measurements: dict[str, np.ndarray] = {}
    for ci, size in enumerate(CLUSTER_SIZES):
        base_lat = 40.0 + 0.5 * ci  # ~55 km between clusters: 8 components
        jumps = rng.random(STEPS) < 0.25
        signs = rng.choice([-5.0, 5.0], size=STEPS)
        for k in range(size):
            sid = f"c{ci:02d}s{k:02d}"
            attribute = "humidity" if k == 0 else "temperature"
            sensors.append(
                Sensor(
                    sid, attribute,
                    base_lat + float(rng.uniform(0, 0.003)),
                    -3.0 + float(rng.uniform(0, 0.003)),
                )
            )
            followed = jumps & (rng.random(STEPS) < 0.85)
            private = rng.random(STEPS) < 0.04
            deltas = np.where(followed, signs, 0.0) + np.where(
                private, rng.choice([-5.0, 5.0], size=STEPS), 0.0
            )
            measurements[sid] = deltas.cumsum() + rng.normal(0.0, 0.1, STEPS)
    timeline = [
        datetime(2024, 1, 1) + i * timedelta(hours=1) for i in range(STEPS)
    ]
    return SensorDataset("parallel-bench", timeline, sensors, measurements)


def bench_params() -> MiningParameters:
    return MiningParameters(
        evolving_rate=3.0,
        distance_threshold=1.0,
        max_attributes=3,
        min_support=150,
        max_sensors=4,
    )


def _search_inputs():
    params = bench_params()
    dataset = make_multi_component_dataset()
    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    return list(dataset), adjacency, evolving, params


def _time_search(sensors, adjacency, evolving, params, repeats: int = 3):
    """Best wall time of ``search_all`` and its ranked rows as CAPs."""
    best = float("inf")
    rows = []
    for _ in range(repeats):
        start = time.perf_counter()
        rows = search_all(sensors, adjacency, evolving, params)
        best = min(best, time.perf_counter() - start)
    return best, list(ResultTable.from_rows(rows, delayed=params.max_delay > 0))


def test_parallel_engine_speedup_and_identity():
    """The headline: identical CAPs at every worker count, wall times out."""
    sensors, adjacency, evolving, params = _search_inputs()
    components = [c for c in connected_components(adjacency) if len(c) >= 2]
    assert len(components) == len(CLUSTER_SIZES), "config must be multi-component"

    serial_s, serial_caps = _time_search(
        sensors, adjacency, evolving, params.with_updates(n_jobs=1)
    )
    serial_docs = [c.to_document() for c in serial_caps]
    assert serial_caps, "the bench config must actually mine patterns"

    cores = _usable_cores()
    rows = [
        {
            "engine": "serial (n_jobs=1)",
            "wall_s": round(serial_s, 3),
            "caps": len(serial_caps),
            "speedup": "1.00x",
        }
    ]
    report: dict[str, object] = {
        "benchmark": "bench_parallel_mining",
        "machine": machine_info(),
        "timed_region": "search_all (step 4), best of 3",
        "config": {
            "clusters": list(CLUSTER_SIZES),
            "steps": STEPS,
            "components": len(components),
            "sensors": len(sensors),
        },
        "usable_cores": cores,
        # Every speedup below is relative to THIS core budget.  On a
        # 1-core container n_jobs>1 measures pure sharding overhead, so a
        # sub-1.0x number there is expected, not a parallelism regression.
        "speedup_context": (
            f"measured on {cores} scheduler-visible core(s); speedups are "
            "only meaningful claims when usable_cores >= n_jobs"
        ),
        "serial_seconds": serial_s,
        "workers": {},
    }
    speedups: dict[int, float] = {}
    for n_jobs in (2, 4):
        wall_s, caps = _time_search(
            sensors, adjacency, evolving, params.with_updates(n_jobs=n_jobs)
        )
        # An execution strategy, not an approximation: byte-identical CAPs.
        assert [c.to_document() for c in caps] == serial_docs, (
            f"n_jobs={n_jobs} must reproduce the serial result exactly"
        )
        speedups[n_jobs] = serial_s / wall_s
        report["workers"][str(n_jobs)] = {
            "seconds": wall_s,
            "speedup": speedups[n_jobs],
        }
        rows.append(
            {
                "engine": f"parallel (n_jobs={n_jobs})",
                "wall_s": round(wall_s, 3),
                "caps": len(caps),
                "speedup": f"{speedups[n_jobs]:.2f}x",
            }
        )
    print_table(
        f"parallel component-sharded engine ({cores} usable cores)", rows
    )
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    if cores >= 4:
        if speedups[4] < 1.5:
            # One re-measurement of both sides before failing: shared CI
            # runners occasionally lose a run to a noisy neighbour, and a
            # single retry absorbs that without weakening the criterion.
            serial_s, _ = _time_search(
                sensors, adjacency, evolving, params.with_updates(n_jobs=1)
            )
            wall_s, _ = _time_search(
                sensors, adjacency, evolving, params.with_updates(n_jobs=4)
            )
            speedups[4] = max(speedups[4], serial_s / wall_s)
        assert speedups[4] >= 1.5, (
            f"4 workers must beat serial by >= 1.5x on a >= 4-core machine; "
            f"got {speedups[4]:.2f}x ({report['workers']['4']})"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 usable cores, this machine has "
            f"{cores}; wall times recorded in {REPORT_PATH.name}"
        )
