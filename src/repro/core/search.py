"""CAP search (MISCELA step 4), simultaneous and time-delayed.

MISCELA searches each spatially connected sensor set for CAPs by "recursively
conducting the CAP search with gradually expanding spatially close sensors
according to a tree structure".  We realise that tree as an ESU-style
enumeration (Wernicke 2006) of connected subgraphs of the η-proximity graph:

* every connected sensor set is visited **exactly once** (no duplicate work),
* the co-evolving timestamp set shrinks monotonically along a tree path, so
  any state whose support drops below ψ prunes its whole subtree,
* attribute-count and sensor-count bounds prune expansions that could never
  return below the limits.

The time-delayed CAPs of the journal extension (DPD 2020) are the same tree
with one more choice per added sensor: its delay ``d ∈ [-δ, δ]`` relative
to the seed, kept only while the path's delays span at most δ.  Shifting a
sensor's evolving set earlier by ``d`` turns "evolves at ``t + d``" into
"evolves at ``t``", so delayed co-evolution is an ordinary intersection of
shifted sets; with δ = 0 every delay is 0 and the tree is the simultaneous
one.  In direction-aware mode each delay splits further into the two
relative orientations (same / opposite) to the seed.

Tree nodes carry Python-int bitmaps (:mod:`repro.core.bitset`):
co-evolution intersection is ``a & b`` and support ``int.bit_count()``,
direction consistency splits on ``dirs_seed ^ dirs_candidate``, and the
delay shift is ``x >> d`` or ``x << -d`` (cached per sensor).  The search
emits each pattern as a :data:`~repro.core.types.PatternRow` — its members,
delays, attributes, support and bitmap, exactly as the tree holds them —
and builds no :class:`~repro.core.types.CAP`: ranking
(:func:`dedupe_strongest`) and storage
(:class:`repro.core.result_columns.ResultTable`) work on the rows, and a
CAP is built only for a row a caller reads (CI lint "CAPs on request").
The exhaustive :func:`repro.core.baseline.naive_search`, written over plain
sorted arrays, is the in-library oracle for this loop.

The ESU extension list is grown incrementally: each tree node extends the
excluded-neighbourhood set of its parent by one sensor's adjacency (O(degree)
per expansion) instead of re-uniting every member's adjacency per node.

The module exposes :func:`search_component` (one connected component) and
:func:`search_all` (whole proximity graph), plus :func:`filter_maximal` for
callers that only want maximal patterns.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .parameters import MiningParameters
from .parallel import MiningControl, sharded_search
from .types import CAP, EvolvingSet, PatternRow, Sensor

__all__ = [
    "check_supported",
    "search_component",
    "search_all",
    "filter_maximal",
    "dedupe_strongest",
]


def check_supported(params: MiningParameters) -> None:
    """Refuse the one parameter combination the search does not mine.

    Direction-aware delayed mining is not part of the reproduction.  Step
    4's execution core (:func:`repro.core.parallel.run_shard_units`), the
    HTTP parameter parser and the CLI all call this, so no path mines it.

    Raises
    ------
    NotImplementedError
        With ``params.direction_aware`` and ``params.max_delay > 0``.
    """
    if params.direction_aware and params.max_delay > 0:
        raise NotImplementedError(
            "direction-aware delayed mining is not part of the reproduction; "
            "use direction_aware=False with max_delay > 0"
        )


def search_component(
    component: Iterable[str],
    adjacency: Mapping[str, set[str]],
    attributes: Mapping[str, str],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    seeds: Iterable[str] | None = None,
    order: Mapping[str, int] | None = None,
) -> list[PatternRow]:
    """All patterns rooted inside one spatially connected sensor set.

    Returns the raw pattern rows in emission order — candidates in pop
    order, then delays ``-δ … δ``, then orientations — so the caller's
    :func:`dedupe_strongest` keeps the first-seen pattern on support ties.
    A row's delays are relative to its seed, not yet anchored.

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
        Mining parameters; ``params.max_delay`` is δ.
    seeds:
        Optional subset of the component to use as tree roots.  Each seed's
        root-level ESU branch is independent of every other seed's, so the
        parallel engine (:mod:`repro.core.parallel`) splits oversized
        components into seed runs; ``None`` (default) roots at every member.
    order:
        The canonical rank map (sensor id → position in sorted order);
        computed from ``adjacency`` when ``None``.  A fixed total order
        makes the enumeration canonical: each connected set is generated
        from its smallest member only.
    """
    if order is None:
        order = {sid: i for i, sid in enumerate(sorted(adjacency))}
    delta = params.max_delay
    min_support = params.min_support
    max_attributes = params.max_attributes
    max_sensors = params.max_sensors
    multi_attribute = params.require_multi_attribute
    direction_aware = params.direction_aware
    members = sorted(component, key=lambda sid: order[sid])
    # Per member: (delay, presence shifted earlier by delay) for every
    # allowed delay, or None when it evolves fewer than ψ times and so can
    # join no pattern.  A shift needs no clip to the timeline: every node's
    # bits descend from the seed's unshifted presence, so a bit shifted
    # past the horizon is AND-ed away.
    shifted: dict[str, list[tuple[int, int]] | None] = {}
    dirs: dict[str, int] = {}
    for sid in members:
        ev = evolving.get(sid)
        if ev is None or len(ev) < min_support:
            shifted[sid] = None
            continue
        presence = ev.bits.presence
        shifted[sid] = [
            (d, presence >> d if d >= 0 else presence << -d)
            for d in range(-delta, delta + 1)
        ]
        dirs[sid] = ev.bits.dirs

    found: list[PatternRow] = []
    # Per-seed state shared along one DFS path.  ``excluded`` is the path
    # members' closed neighbourhood, mutated in place and undone on
    # backtrack; exclusivity against it is what guarantees exactly-once
    # enumeration: a sensor adjacent to any current member can never
    # re-enter a later extension list.
    excluded: set[str] = set()
    seed_rank = 0
    seed_dirs = 0

    def expand(
        members: tuple[str, ...],
        delays: tuple[int, ...],
        attrs: frozenset[str],
        bits: int,
        support: int,
        extension: list[str],
    ) -> None:
        """One node of the CAP tree.

        ``bits`` holds the reference timestamps (the seed's times) at which
        ``members``, each at its delay in ``delays``, co-evolve;
        ``support`` is their count and ``extension`` the ESU extension list
        (sensors that may still be added in this subtree).
        """
        if len(members) >= 2 and (len(attrs) >= 2 or not multi_attribute):
            found.append((members, delays, attrs, support, bits))
        if max_sensors is not None and len(members) >= max_sensors:
            return
        if delta:  # a candidate's delay must keep the span within δ
            lo = min(delays)
            hi = max(delays)
        # Work on a copy we can consume: ESU removes each candidate before
        # recursing so no connected set is generated twice.
        pending = list(extension)
        while pending:
            candidate = pending.pop()
            new_attrs = attrs | {attributes[candidate]}
            if len(new_attrs) > max_attributes:
                continue
            branches = shifted[candidate]
            if branches is None:
                continue
            if direction_aware:
                # Split on the candidate's direction relative to the seed's:
                # same, then opposite.  δ = 0 here (see check_supported),
                # so the one branch is the unshifted presence.
                differs = seed_dirs ^ dirs[candidate]
                presence = branches[0][1]
                branches = [(0, presence & ~differs), (0, presence & differs)]
            added: list[str] | None = None
            for delay, branch_bits in branches:
                if delta and (delay - lo > delta or hi - delay > delta):
                    continue
                common = bits & branch_bits
                new_support = common.bit_count()
                if new_support < min_support:
                    continue
                if added is None:
                    added = [w for w in adjacency[candidate] if w not in excluded]
                    excluded.update(added)
                    new_extension = pending + [w for w in added if order[w] > seed_rank]
                    new_members = members + (candidate,)
                expand(
                    new_members,
                    delays + (delay,),
                    new_attrs,
                    common,
                    new_support,
                    new_extension,
                )
            if added is not None:
                excluded.difference_update(added)

    if seeds is not None:
        wanted = set(seeds)
        members = [sid for sid in members if sid in wanted]
    for seed in members:
        seed_shifts = shifted[seed]
        if seed_shifts is None:
            continue
        seed_bits = seed_shifts[delta][1]  # the delay-0 entry
        seed_dirs = dirs[seed]
        seed_rank = order[seed]
        excluded = {seed} | adjacency[seed]
        expand(
            (seed,),
            (0,),
            frozenset({attributes[seed]}),
            seed_bits,
            seed_bits.bit_count(),
            [w for w in adjacency[seed] if order[w] > seed_rank],
        )
    return found


def dedupe_strongest(rows: Iterable[PatternRow]) -> list[PatternRow]:
    """Strongest pattern row per sensor set, sorted by (-support, key).

    ``key`` is the sorted sensor ids.  The tree can reach one sensor set
    through several delay assignments and both relative orientations; the
    strongest is kept and first-seen wins ties, so callers must present
    rows in the serial emission order (components largest-first, seeds in
    rank order) — the parallel engine's deterministic merge preserves
    exactly that.
    """
    best: dict[tuple[str, ...], PatternRow] = {}
    for row in rows:
        key = tuple(sorted(row[0]))
        kept = best.get(key)
        if kept is None or row[3] > kept[3]:
            best[key] = row
    ranked = sorted(best.items(), key=lambda item: (-item[1][3], item[0]))
    return [row for _key, row in ranked]


def search_all(
    sensors: Sequence[Sensor],
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    control: MiningControl | None = None,
) -> list[PatternRow]:
    """Ranked pattern rows across every connected component of the graph.

    Serves every mode — simultaneous, direction-aware and delayed (δ =
    ``params.max_delay``) — through step 4's one driver
    (:func:`repro.core.parallel.sharded_search`): ``params.n_jobs`` picks
    in-process or process-pool execution, never a different result.  An
    optional ``control`` receives per-unit progress and is polled for
    cancellation.  Each sensor set keeps its strongest pattern
    (:func:`dedupe_strongest`); :meth:`ResultTable.from_rows
    <repro.core.result_columns.ResultTable.from_rows>` turns the rows into
    a result.

    Raises
    ------
    NotImplementedError
        For direction-aware delayed mining (:func:`check_supported`).
    """
    return dedupe_strongest(
        sharded_search(sensors, adjacency, evolving, params, control=control)
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
