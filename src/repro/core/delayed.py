"""Time-delayed CAP mining (the DPD 2020 extension of MISCELA).

The journal version of MISCELA ("discovering simultaneous and time-delayed
correlated attribute patterns") generalises co-evolution: sensor ``s`` may
react up to δ timeline steps *after* the pattern's reference time.  A
delayed CAP assigns each sensor a delay ``d_s ∈ [0, δ]`` (with at least one
sensor at delay 0, which anchors the pattern in time) such that at ≥ ψ
reference timestamps ``t`` every sensor evolves at ``t + d_s``.

Implementation: shifting an evolving set *earlier* by ``d`` turns "evolves at
``t + d``" into "evolves at ``t``", so delayed co-evolution is an ordinary
intersection of shifted sets.  The shift is an int shift of the sensor's
presence bitmap (:mod:`repro.core.bitset`), cached per (sensor, delay),
and the intersection ``a & b`` with ``int.bit_count()`` as its support.
For each sensor set the miner reports the best delay assignment (maximum
support), which is what the analyst wants to see; enumerating every
passing assignment is available via ``emit_all_assignments``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .bitset import bit_indices, decode_bitmaps
from .parameters import MiningParameters
from .parallel import MiningControl, sharded_search
from .types import CAP, EvolvingSet, Sensor

__all__ = ["search_delayed", "search_delayed_component", "delayed_support"]


def delayed_support(
    evolving: Mapping[str, EvolvingSet],
    delays: Mapping[str, int],
    horizon: int,
) -> np.ndarray:
    """Reference timestamps where every sensor evolves at its delayed time."""
    common = (1 << horizon) - 1 if delays else 0
    for sid, delay in delays.items():
        common &= evolving[sid].bits.shift(-delay, horizon).presence
    return bit_indices(common)


class _DelayedState:
    """A tree node: members with chosen delays and surviving reference times.

    ``bits`` holds the reference timestamps as presence bits; ``support``
    caches their count so nodes never materialize index arrays.
    """

    __slots__ = ("members", "delays", "attrs", "bits", "support")

    def __init__(
        self,
        members: tuple[str, ...],
        delays: tuple[int, ...],
        attrs: frozenset[str],
        bits: int,
        support: int,
    ) -> None:
        self.members = members
        self.delays = delays
        self.attrs = attrs
        self.bits = bits
        self.support = support


def search_delayed_component(
    component: Sequence[str] | set[str],
    adjacency: Mapping[str, set[str]],
    attributes: Mapping[str, str],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    horizon: int,
    seeds: Sequence[str] | None = None,
    order: Mapping[str, int] | None = None,
) -> list[CAP]:
    """Delayed CAPs rooted inside one connected component, in emission order.

    Returns the raw (pre-dedup) pattern stream for the component so the
    step-4 driver applies the best-assignment selection once over the
    merged stream.  ``seeds`` optionally restricts the tree roots (the
    planner's seed-split sharding); ``order`` may pass the precomputed
    canonical rank map to avoid re-sorting the whole adjacency per
    component.
    """
    delta = params.max_delay
    if order is None:
        order = {sid: i for i, sid in enumerate(sorted(adjacency))}
    found: list[_DelayedState] = []

    # Shifted evolving sets are reused across the whole tree: cache the
    # shifted presence bitmaps per (sensor, delay).
    bits_cache: dict[tuple[str, int], int] = {}

    def shifted_bits(sid: str, delay: int) -> int:
        key = (sid, delay)
        bits = bits_cache.get(key)
        if bits is None:
            bits = evolving[sid].bits.shift(-delay, horizon).presence
            bits_cache[key] = bits
        return bits

    def emit(state: _DelayedState) -> None:
        if len(state.members) < 2:
            return
        if params.require_multi_attribute and len(state.attrs) < 2:
            return
        if state.support < params.min_support:
            return
        found.append(state)

    def expand(state: _DelayedState, extension: list[str], excluded: set[str],
               seed_rank: int) -> None:
        emit(state)
        if params.max_sensors is not None and len(state.members) >= params.max_sensors:
            return
        pending = list(extension)
        while pending:
            candidate = pending.pop()
            new_attrs = state.attrs | {attributes[candidate]}
            if len(new_attrs) > params.max_attributes:
                continue
            cand_evolving = evolving[candidate]
            if len(cand_evolving) < params.min_support:
                continue
            added: list[str] | None = None
            new_extension: list[str] = []
            # The seed is pinned at relative delay 0, so a candidate may lead
            # (negative) or lag (positive) it; the pattern is valid as long
            # as the overall delay span stays within δ.
            lo = min(state.delays)
            hi = max(state.delays)
            for delay in range(-delta, delta + 1):
                if max(hi, delay) - min(lo, delay) > delta:
                    continue
                common = state.bits & shifted_bits(candidate, delay)
                new_support = common.bit_count()
                if new_support < params.min_support:
                    continue
                if added is None:
                    added = [w for w in adjacency[candidate] if w not in excluded]
                    excluded.update(added)
                    new_extension = pending + [
                        w for w in added if order[w] > seed_rank
                    ]
                expand(
                    _DelayedState(
                        state.members + (candidate,),
                        state.delays + (delay,),
                        new_attrs,
                        common,
                        new_support,
                    ),
                    new_extension,
                    excluded,
                    seed_rank,
                )
            if added is not None:
                excluded.difference_update(added)

    members = sorted(component, key=lambda sid: order[sid])
    if seeds is not None:
        wanted = set(seeds)
        members = [sid for sid in members if sid in wanted]
    for seed in members:
        seed_evolving = evolving[seed]
        if len(seed_evolving) < params.min_support:
            continue
        seed_rank = order[seed]
        extension = [w for w in adjacency[seed] if order[w] > seed_rank]
        excluded = {seed} | adjacency[seed]
        expand(
            _DelayedState(
                (seed,),
                (0,),
                frozenset({attributes[seed]}),
                shifted_bits(seed, 0),
                len(seed_evolving),
            ),
            extension,
            excluded,
            seed_rank,
        )
    decoded = decode_bitmaps(state.bits for state in found)
    results = []
    for state in found:
        # Canonical form: the smallest delay is zero so patterns are
        # anchored (shifting all delays together is the same pattern).
        min_delay = min(state.delays)
        results.append(
            CAP(
                sensor_ids=frozenset(state.members),
                attributes=state.attrs,
                support=state.support,
                evolving_indices=decoded[state.bits],
                delays={
                    sid: d - min_delay for sid, d in zip(state.members, state.delays)
                },
            )
        )
    return results


def finalize_delayed(results: Sequence[CAP], emit_all_assignments: bool) -> list[CAP]:
    """Best delay assignment per sensor set (or all), sorted canonically."""
    if emit_all_assignments:
        out = list(results)
        out.sort(key=lambda c: (-c.support, c.key()))
        return out
    from .search import dedupe_strongest

    return dedupe_strongest(results)


def search_delayed(
    sensors: Sequence[Sensor],
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    horizon: int,
    emit_all_assignments: bool = False,
    control: MiningControl | None = None,
) -> list[CAP]:
    """Delayed CAPs over the proximity graph.

    Parameters
    ----------
    horizon:
        Number of timestamps in the dataset timeline (bounds shifted sets).
    emit_all_assignments:
        When true every passing delay assignment becomes its own CAP;
        by default only the maximum-support assignment per sensor set is
        returned.
    control:
        Optional progress/cancellation hooks, as for ``search_all``.

    Raises
    ------
    NotImplementedError
        With ``params.direction_aware`` (raised by the execution core,
        :func:`repro.core.parallel.run_shard_units`).

    Notes
    -----
    With ``params.max_delay == 0`` this reduces exactly to the simultaneous
    search (every delay is forced to 0) — the property tests rely on that.
    Runs through step 4's one driver
    (:func:`repro.core.parallel.sharded_search`); ``params.n_jobs`` picks
    the execution, never the result.
    """
    merged = sharded_search(
        "delayed", sensors, adjacency, evolving, params,
        horizon=horizon, control=control,
    )
    return finalize_delayed(merged, emit_all_assignments)
