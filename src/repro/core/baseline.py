"""Naive CAP miner — the exhaustive baseline.

The paper motivates MISCELA as "an efficient algorithm for CAP mining"; the
natural comparator (and our correctness oracle) enumerates **every** subset
of every spatially connected component, checks connectivity of the induced
subgraph, and recomputes the co-evolution support from scratch over plain
sorted index arrays — deliberately not through the int bitmaps the tree
search runs on, so the cross-check exercises independent code.  It produces
exactly the same CAP set as the tree search, exponentially slower.  It
runs serially in the calling process and shares none of step 4's execution
code (:mod:`repro.core.parallel`) with the engine it cross-checks.

``benchmarks/bench_miscela_vs_baseline.py`` uses this to reproduce the
efficiency claim; the property tests use it to cross-check the tree search.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .parameters import MiningParameters
from .spatial import connected_components, is_connected
from .types import CAP, EvolvingSet, Sensor

__all__ = ["naive_search"]


def _direction_aware_support(
    evolving: Mapping[str, EvolvingSet], members: Sequence[str], common: np.ndarray
) -> np.ndarray:
    """Timestamps in ``common`` where the members' directions are consistent.

    Consistent means: there is a fixed relative orientation per sensor such
    that at every kept timestamp each sensor's direction equals the first
    sensor's direction times its orientation.  We keep the orientation
    assignment that retains the most timestamps, mirroring the tree search's
    per-branch maximisation.
    """
    if common.size == 0 or len(members) < 2:
        return common
    signs = []
    for sid in members:
        ev = evolving[sid]
        pos = np.searchsorted(ev.indices, common)
        signs.append(ev.directions[pos].astype(np.int8))
    base = signs[0]
    # The orientation of each non-seed sensor is a free ±1 choice; the best
    # assignment maximises the timestamps where *all* sensors agree with the
    # seed times their orientation.  Per-sensor greedy is not exact (choices
    # interact through the intersection), so enumerate all 2^(k-1)
    # assignments — the naive miner is an oracle, not a fast path.
    per_sensor = [(s == base, s != base) for s in signs[1:]]
    best_mask = np.zeros(common.size, dtype=bool)
    for choice in range(1 << len(per_sensor)):
        mask = np.ones(common.size, dtype=bool)
        for bit, (same, opposite) in enumerate(per_sensor):
            mask &= opposite if (choice >> bit) & 1 else same
            if not mask.any():
                break
        if int(mask.sum()) > int(best_mask.sum()):
            best_mask = mask
    return common[best_mask]


def naive_search(
    sensors: Sequence[Sensor],
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    max_component_size: int = 20,
) -> list[CAP]:
    """Exhaustive CAP enumeration.

    Raises
    ------
    ValueError
        If any connected component exceeds ``max_component_size`` — the
        2^n blow-up past ~20 sensors would hang rather than finish.

    Notes
    -----
    Always serial, whatever worker count the parameters ask for: the
    oracle shares no execution code (driver, planner, pool) with the
    engine it checks.
    """
    attributes = {s.sensor_id: s.attribute for s in sensors}
    caps: list[CAP] = []
    max_size = params.max_sensors
    for component in connected_components(adjacency):
        if len(component) < 2:
            continue
        if len(component) > max_component_size:
            raise ValueError(
                f"component of {len(component)} sensors exceeds the naive "
                f"miner's limit of {max_component_size}; use MiscelaMiner"
            )
        members = sorted(component)
        upper = len(members) if max_size is None else min(max_size, len(members))
        for size in range(2, upper + 1):
            for subset in combinations(members, size):
                attrs = frozenset(attributes[sid] for sid in subset)
                if len(attrs) > params.max_attributes:
                    continue
                if params.require_multi_attribute and len(attrs) < 2:
                    continue
                if not is_connected(adjacency, subset):
                    continue
                common = evolving[subset[0]].indices
                for sid in subset[1:]:
                    common = np.intersect1d(
                        common, evolving[sid].indices, assume_unique=True
                    )
                    if common.size == 0:
                        break
                if params.direction_aware:
                    common = _direction_aware_support(evolving, subset, common)
                if common.size < params.min_support:
                    continue
                caps.append(
                    CAP(
                        sensor_ids=frozenset(subset),
                        attributes=attrs,
                        support=int(common.size),
                        evolving_indices=tuple(common.tolist()),
                    )
                )
    caps.sort(key=lambda c: (-c.support, c.key()))
    return caps
