"""A plain-Python ``set`` reference for CAP mining, for tests only.

Every definition here is written straight from the papers over Python
sets and dicts — no numpy, no packed bitmaps, no tree search — so that
checking the library against it never runs the code under test twice.
Inputs are plain data:

* ``events`` — sensor id → ``{timestamp index: direction}`` (±1), i.e.
  each sensor's evolving set;
* ``adjacency`` — sensor id → set of η-close sensor ids;
* ``attributes`` — sensor id → attribute name.

Results are ``{sorted sensor-id tuple: (support, sorted indices)}`` maps
holding every pattern at or above ψ (the best one per sensor set where a
definition admits several).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Iterator, Mapping

Events = Mapping[str, Mapping[int, int]]
Patterns = dict[tuple[str, ...], tuple[int, tuple[int, ...]]]


def _connected(adjacency: Mapping[str, set[str]], members: tuple[str, ...]) -> bool:
    inside = set(members)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        for other in adjacency[frontier.pop()] & inside:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen == inside


def candidate_sets(
    adjacency: Mapping[str, set[str]],
    attributes: Mapping[str, str],
    *,
    max_attributes: int,
    require_multi_attribute: bool,
    max_sensors: int | None,
) -> Iterator[tuple[str, ...]]:
    """Every connected sensor set (≥ 2 sensors) the size bounds allow."""
    ids = sorted(adjacency)
    upper = len(ids) if max_sensors is None else min(max_sensors, len(ids))
    for size in range(2, upper + 1):
        for members in combinations(ids, size):
            attrs = {attributes[sid] for sid in members}
            if len(attrs) > max_attributes:
                continue
            if require_multi_attribute and len(attrs) < 2:
                continue
            if _connected(adjacency, members):
                yield members


def common_times(events: Events, members: tuple[str, ...]) -> set[int]:
    """Timestamps at which every member evolves (any direction)."""
    return set.intersection(*(set(events[sid]) for sid in members))


def orientation(events: Events, members: tuple[str, ...], t: int) -> tuple[int, ...]:
    """Each member's direction at ``t`` relative to the first member's."""
    ref = events[members[0]][t]
    return tuple(events[sid][t] * ref for sid in members)


def oriented_times(
    events: Events, members: tuple[str, ...], pattern: tuple[int, ...]
) -> set[int]:
    """Common timestamps at which the members move with ``pattern``."""
    return {
        t for t in common_times(events, members)
        if orientation(events, members, t) == pattern
    }


def delayed_times(
    events: Events, delays: Mapping[str, int], horizon: int
) -> set[int]:
    """Reference times ``t`` in ``[0, horizon)`` with ``t + d_s`` evolving
    for every sensor ``s``."""
    shifted = [
        {e - d for e in events[sid] if 0 <= e - d < horizon}
        for sid, d in delays.items()
    ]
    return set.intersection(*shifted) if shifted else set()


def simultaneous(events, adjacency, attributes, params) -> Patterns:
    """Direction-agnostic CAPs: co-evolution at the same timestamps."""
    out: Patterns = {}
    for members in candidate_sets(adjacency, attributes, **_bounds(params)):
        times = common_times(events, members)
        if len(times) >= params.min_support:
            out[members] = (len(times), tuple(sorted(times)))
    return out


def direction_aware(events, adjacency, attributes, params) -> dict[tuple[str, ...], int]:
    """Direction-aware supports: the most common time-wise orientation.

    A direction-aware CAP keeps one fixed relative orientation per sensor;
    its support is the number of common timestamps moving with it, and the
    best orientation is simply the most frequent one.
    """
    out: dict[tuple[str, ...], int] = {}
    for members in candidate_sets(adjacency, attributes, **_bounds(params)):
        counts = Counter(
            orientation(events, members, t) for t in common_times(events, members)
        )
        best = max(counts.values(), default=0)
        if best >= params.min_support:
            out[members] = best
    return out


def delayed(events, adjacency, attributes, params, horizon) -> dict[tuple[str, ...], int]:
    """Best support per sensor set over every anchored delay assignment.

    An assignment gives each member a delay in ``[0, δ]`` with at least one
    member at 0 (shifting every delay together is the same pattern).
    """
    delta = params.max_delay
    out: dict[tuple[str, ...], int] = {}
    for members in candidate_sets(adjacency, attributes, **_bounds(params)):
        best = 0
        for assignment in product(range(delta + 1), repeat=len(members)):
            if min(assignment) != 0:
                continue
            support = len(delayed_times(events, dict(zip(members, assignment)), horizon))
            best = max(best, support)
        if best >= params.min_support:
            out[members] = best
    return out


def _bounds(params) -> dict:
    return {
        "max_attributes": params.max_attributes,
        "require_multi_attribute": params.require_multi_attribute,
        "max_sensors": params.max_sensors,
    }
