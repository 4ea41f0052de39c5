"""CAP search (MISCELA step 4).

MISCELA searches each spatially connected sensor set for CAPs by "recursively
conducting the CAP search with gradually expanding spatially close sensors
according to a tree structure".  We realise that tree as an ESU-style
enumeration (Wernicke 2006) of connected subgraphs of the η-proximity graph:

* every connected sensor set is visited **exactly once** (no duplicate work),
* the co-evolving timestamp set shrinks monotonically along a tree path, so
  any state whose support drops below ψ prunes its whole subtree,
* attribute-count and sensor-count bounds prune expansions that could never
  return below the limits.

Tree nodes carry Python-int bitmaps (:mod:`repro.core.bitset`):
co-evolution intersection is ``a & b`` and support ``int.bit_count()``,
direction consistency splits on ``dirs_seed ^ dirs_candidate``, and index
tuples are decoded only for emitted patterns — once per distinct bitmap,
in one batch per search — so a node costs one int of timeline/64 words
instead of O(support) int64s.  The exhaustive
:func:`repro.core.baseline.naive_search`, written over plain sorted
arrays, is the in-library oracle for this loop.

The ESU extension list is grown incrementally: each tree node extends the
excluded-neighbourhood set of its parent by one sensor's adjacency (O(degree)
per expansion) instead of re-uniting every member's adjacency per node.

The module exposes :func:`search_component` (one connected component) and
:func:`search_all` (whole proximity graph), plus :func:`filter_maximal` for
callers that only want maximal patterns.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .bitset import decode_bitmaps
from .parameters import MiningParameters
from .parallel import MiningControl, sharded_search
from .types import CAP, EvolvingSet, Sensor

__all__ = ["search_component", "search_all", "filter_maximal", "dedupe_strongest"]


class _SearchContext:
    """Immutable-per-run inputs shared by every tree node."""

    __slots__ = ("adjacency", "attributes", "bits", "params", "order")

    def __init__(
        self,
        adjacency: Mapping[str, set[str]],
        attributes: Mapping[str, str],
        evolving: Mapping[str, EvolvingSet],
        params: MiningParameters,
    ) -> None:
        self.adjacency = adjacency
        self.attributes = attributes
        # Only sensors that evolve at least ψ times can join a pattern.
        self.bits = {
            sid: ev.bits for sid, ev in evolving.items() if len(ev) >= params.min_support
        }
        self.params = params
        # A fixed total order on sensors makes the enumeration canonical:
        # each connected set is generated from its smallest member only.
        self.order = {sid: i for i, sid in enumerate(sorted(adjacency))}


def _grow_excluded(
    adjacency: Mapping[str, set[str]], excluded: set[str], candidate: str
) -> list[str]:
    """Extend the path's excluded-neighbourhood set by one sensor's adjacency.

    Returns the sensors actually added so the caller can undo them when
    backtracking past ``candidate`` — the set is shared (mutated in place)
    along one DFS path, which keeps each expansion O(degree) instead of
    re-uniting every member's adjacency per tree node.  Exclusivity against
    this set is what guarantees exactly-once enumeration: a sensor adjacent
    to any current member can never re-enter a later extension list.
    """
    added = [w for w in adjacency[candidate] if w not in excluded]
    excluded.update(added)
    return added


#: A pattern found in the tree, before its bitmap is decoded:
#: ``(members, attributes, support, bits)``.
_Found = tuple[tuple[str, ...], frozenset[str], int, int]


def _emit(
    ctx: _SearchContext,
    members: tuple[str, ...],
    attrs: frozenset[str],
    bits: int,
    support: int,
    out: list[_Found],
) -> None:
    """Record a pattern at a bitmap node; :func:`search_component` decodes."""
    params = ctx.params
    if len(members) < 2:
        return
    if params.require_multi_attribute and len(attrs) < 2:
        return
    if support < params.min_support:
        return
    out.append((members, attrs, support, bits))


def _expand(
    ctx: _SearchContext,
    members: tuple[str, ...],
    attrs: frozenset[str],
    bits: int,
    support: int,
    ref_dirs: int,
    extension: list[str],
    excluded: set[str],
    seed_rank: int,
    out: list[_Found],
) -> None:
    """One node of the CAP tree.

    ``members`` is the current connected sensor set, ``bits`` the
    timestamps at which it co-evolves as presence bits (``support`` their
    count), ``ref_dirs`` the seed's direction bits (read only in
    direction-aware mode), ``extension`` the ESU extension list (sensors
    that may still be added in this subtree), and ``excluded`` the
    members' closed neighbourhood, grown incrementally along the path.
    Everything stays packed along the whole path — intersection is ``&``,
    direction consistency ``^`` and ``& ~``, support ``int.bit_count()``.
    """
    params = ctx.params
    _emit(ctx, members, attrs, bits, support, out)
    if params.max_sensors is not None and len(members) >= params.max_sensors:
        return
    order = ctx.order
    # Work on a copy we can consume: ESU removes each candidate before
    # recursing so no connected set is generated twice.
    pending = list(extension)
    while pending:
        candidate = pending.pop()
        cand_attr = ctx.attributes[candidate]
        new_attrs = attrs | {cand_attr}
        if len(new_attrs) > params.max_attributes:
            continue
        cand_bits = ctx.bits.get(candidate)
        if cand_bits is None:
            continue
        common = bits & cand_bits.presence
        if params.direction_aware:
            differs = ref_dirs ^ cand_bits.dirs
            added = _grow_excluded(ctx.adjacency, excluded, candidate)
            new_extension = pending + [w for w in added if order[w] > seed_rank]
            # Keep timestamps where the candidate moves with a consistent
            # relative direction to the seed.  Both relative orientations
            # (same / opposite) are explored as separate tree branches.
            for branch_bits in (common & ~differs, common & differs):
                branch_support = branch_bits.bit_count()
                if branch_support < params.min_support:
                    continue
                _expand(
                    ctx,
                    members + (candidate,),
                    new_attrs,
                    branch_bits,
                    branch_support,
                    ref_dirs,
                    new_extension,
                    excluded,
                    seed_rank,
                    out,
                )
            excluded.difference_update(added)
            continue
        new_support = common.bit_count()
        if new_support < params.min_support:
            continue
        added = _grow_excluded(ctx.adjacency, excluded, candidate)
        new_extension = pending + [w for w in added if order[w] > seed_rank]
        _expand(
            ctx,
            members + (candidate,),
            new_attrs,
            common,
            new_support,
            ref_dirs,
            new_extension,
            excluded,
            seed_rank,
            out,
        )
        excluded.difference_update(added)


def search_component(
    component: Iterable[str],
    adjacency: Mapping[str, set[str]],
    attributes: Mapping[str, str],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    seeds: Iterable[str] | None = None,
) -> list[CAP]:
    """All CAPs inside one spatially connected sensor set.

    Parameters
    ----------
    component:
        Sensor ids of one connected component of the proximity graph.
    adjacency:
        The full proximity graph (only edges inside the component are used).
    attributes:
        Sensor id → attribute name.
    evolving:
        Sensor id → evolving set (step-2 output).
    params:
        Mining parameters.
    seeds:
        Optional subset of the component to use as tree roots.  Each seed's
        root-level ESU branch is independent of every other seed's, so the
        parallel engine (:mod:`repro.core.parallel`) splits oversized
        components into seed runs; ``None`` (default) roots at every member.
    """
    ctx = _SearchContext(adjacency, attributes, evolving, params)
    out: list[_Found] = []
    members = sorted(component, key=lambda sid: ctx.order[sid])
    if seeds is not None:
        wanted = set(seeds)
        members = [sid for sid in members if sid in wanted]
    for seed in members:
        seed_bits = ctx.bits.get(seed)
        if seed_bits is None:
            continue
        seed_rank = ctx.order[seed]
        extension = [w for w in adjacency[seed] if ctx.order[w] > seed_rank]
        excluded = {seed} | adjacency[seed]
        _expand(
            ctx,
            (seed,),
            frozenset({attributes[seed]}),
            seed_bits.presence,
            seed_bits.count(),
            seed_bits.dirs,
            extension,
            excluded,
            seed_rank,
            out,
        )
    decoded = decode_bitmaps(bits for *_, bits in out)
    return [
        CAP(
            sensor_ids=frozenset(sensors),
            attributes=attrs,
            support=support,
            evolving_indices=decoded[bits],
        )
        for sensors, attrs, support, bits in out
    ]


def dedupe_strongest(caps: Iterable[CAP]) -> list[CAP]:
    """Strongest pattern per sensor set, sorted by (-support, key).

    Direction-aware search can reach one sensor set through both relative
    orientations; first-seen wins ties, so callers must present CAPs in the
    serial emission order (components largest-first, seeds in rank order) —
    the parallel engine's deterministic merge preserves exactly that.
    """
    best: dict[tuple[str, ...], CAP] = {}
    for cap in caps:
        key = cap.key()
        if key not in best or cap.support > best[key].support:
            best[key] = cap
    ranked = sorted(best.items(), key=lambda item: (-item[1].support, item[0]))
    return [cap for _key, cap in ranked]


def search_all(
    sensors: Sequence[Sensor],
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    control: MiningControl | None = None,
) -> list[CAP]:
    """CAPs across every connected component of the proximity graph.

    Runs through step 4's one driver
    (:func:`repro.core.parallel.sharded_search`): ``params.n_jobs`` picks
    in-process or process-pool execution, never a different result.  An
    optional ``control`` receives per-unit progress and is polled for
    cancellation.
    """
    return dedupe_strongest(
        sharded_search("search", sensors, adjacency, evolving, params, control=control)
    )


def filter_maximal(caps: Sequence[CAP]) -> list[CAP]:
    """Only the CAPs whose sensor set is not a strict subset of another's.

    The miner returns *all* patterns above threshold (like the reference
    implementation); visualizations usually want the maximal ones.

    Sensor sets are packed into integer bitmasks and kept masks are indexed
    per sensor, so each CAP is subset-checked only against the kept patterns
    sharing its rarest member (instead of the O(n²) all-pairs scan) — the
    check itself is a single ``mask & kept == mask`` word operation.
    """
    sensor_bit: dict[str, int] = {}
    for cap in caps:
        for sid in cap.sensor_ids:
            if sid not in sensor_bit:
                sensor_bit[sid] = len(sensor_bit)
    ordered = sorted(caps, key=lambda c: -len(c.sensor_ids))
    kept: list[CAP] = []
    kept_masks_by_sensor: dict[str, list[int]] = {}
    for cap in ordered:
        mask = 0
        for sid in cap.sensor_ids:
            mask |= 1 << sensor_bit[sid]
        # Any superset among the kept caps must contain every member, so
        # scanning the member with the fewest kept occurrences suffices.
        buckets = [kept_masks_by_sensor.get(sid, ()) for sid in cap.sensor_ids]
        rarest = min(buckets, key=len)
        if any(mask & other == mask and other != mask for other in rarest):
            continue
        kept.append(cap)
        for sid in cap.sensor_ids:
            kept_masks_by_sensor.setdefault(sid, []).append(mask)
    kept.sort(key=lambda c: (-c.support, c.key()))
    return kept
