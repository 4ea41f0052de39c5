"""Parallel component-sharded CAP mining engine.

MISCELA's step 3 bounds the search space to spatially connected components,
and inside a component every seed sensor roots an independent branch of the
ESU tree — so one mining run decomposes into shards with no shared state.
This module executes those shards on a process pool and merges the outputs
back into *exactly* the serial result:

* **Sharding** — :func:`plan_shards` turns the component list into work
  units: small components stay whole, oversized ones (estimated cost above
  an even per-worker share) split into runs of canonical seed sensors,
  because each seed's root-level ESU branch is independent of every other
  seed's.  A greedy cost model (:func:`estimate_seed_cost`, estimated tree
  nodes from evolving density, root degree, and component size) packs units
  into balanced shards (LPT) instead of round-robin.

* **Shared inputs** — :func:`sharded_search` builds every evolving set's
  int bitmap (:attr:`~repro.core.types.EvolvingSet.bits`) before the pool
  starts.  With the ``fork`` start method (Linux, the default here) workers inherit
  the parent's sets, bitmaps included — nothing is pickled at all; under
  ``spawn`` the run's inputs are pickled once per worker, and an
  :class:`~repro.core.types.EvolvingSet` pickles as its bitmap alone
  (about timeline/8 bytes per sensor), so the worker's copy searches on
  the carried bitmap without re-packing.

* **Deterministic merge** — every unit returns its pattern rows
  (:data:`~repro.core.types.PatternRow`: bitmaps, not index tuples or
  CAPs, so a pool worker ships back ints) tagged with
  ``(component_index, first_seed_rank)``; sorting the tags reproduces the
  serial emission order (components largest-first, seeds in canonical rank
  order), after which the caller's post-pass,
  :func:`~repro.core.search.dedupe_strongest`, runs once over the merged
  stream.  Callers that only want maximal patterns run
  :func:`~repro.core.search.filter_maximal` once over the merged set,
  never per shard.

* **One driver** — :func:`sharded_search` is step 4 for every caller and
  every mode (δ and direction awareness come from the parameters): plan
  units, run them through :func:`run_shard_units`, merge.  With
  ``MiningParameters.n_jobs`` resolving to more than one worker and more
  than one planned shard the units run on a process pool; otherwise each
  component is one whole unit run in this process.  The distributed shard
  sub-jobs (:mod:`repro.jobs.planner`) run the same
  :func:`run_shard_units`, so every path yields byte-identical CAP lists —
  the property tests in ``tests/core/test_parallel.py`` hold it to that.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .parameters import MiningParameters
from .spatial import connected_components
from .types import EvolvingSet, PatternRow, Sensor

__all__ = [
    "resolve_jobs",
    "MiningCancelled",
    "MiningControl",
    "ShardUnit",
    "estimate_seed_cost",
    "plan_shards",
    "run_shard_units",
    "merge_tagged",
    "sharded_search",
]


class MiningCancelled(RuntimeError):
    """Raised inside a mining run when its controller requests cancellation.

    Cancellation is cooperative: the engine polls
    :meth:`MiningControl.checkpoint` between independent work units (between
    shard completions on the pooled path, between components on the serial
    path), never mid-component — so a cancelled run leaves no partially
    merged output behind.
    """


@dataclass
class MiningControl:
    """Driver-side hooks a long mining run reports to.

    The async job subsystem (:mod:`repro.jobs`) threads one of these into
    :meth:`repro.core.miner.MiscelaMiner.mine`; anything else that wants
    progress bars or cancellable mining can do the same.

    Parameters
    ----------
    progress:
        Called as ``progress(done, total)`` after each completed work unit
        (component shard).  ``done`` only ever grows.
    should_cancel:
        Polled between work units; returning ``True`` makes the engine raise
        :class:`MiningCancelled` at the next checkpoint.
    profiler:
        Optional :class:`repro.obs.profiler.Profiler` (any object with
        ``record``/``record_unit``).  When attached, the engine records
        per-phase and per-unit wall times; when ``None`` (the default) the
        hot loops pay nothing.
    """

    progress: Callable[[int, int], None] | None = None
    should_cancel: Callable[[], bool] | None = None
    profiler: Any | None = None

    def report(self, done: int, total: int) -> None:
        if self.progress is not None and total > 0:
            self.progress(done, total)

    def checkpoint(self) -> None:
        if self.should_cancel is not None and self.should_cancel():
            raise MiningCancelled("mining run cancelled by its controller")

#: Shards per worker: more shards than workers lets the pool's dynamic
#: scheduling absorb cost-model estimation error.
_SHARDS_PER_WORKER = 4


def resolve_jobs(n_jobs: int) -> int:
    """Translate ``MiningParameters.n_jobs`` into a worker count.

    ``0`` means one worker per CPU actually available to this process
    (respecting the scheduler affinity mask, not just the machine size).
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    if n_jobs == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1
    return n_jobs


@dataclass(frozen=True)
class ShardUnit:
    """One independent piece of a mining run.

    ``seeds is None`` means "the whole component"; otherwise the unit roots
    the tree only at the given seeds (a contiguous run in canonical rank
    order).  ``first_rank`` is ``-1`` for whole components so the merge tag
    ``(component_index, first_rank)`` sorts units back into the serial
    emission order.
    """

    component_index: int
    seeds: tuple[str, ...] | None
    first_rank: int
    cost: float

    @property
    def tag(self) -> tuple[int, int]:
        return (self.component_index, self.first_rank)


def estimate_seed_cost(
    seed: str,
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    component_size: int,
    params: MiningParameters,
) -> float:
    """Estimated search-tree nodes rooted at one seed sensor.

    A heuristic, not a count: the root branches over the seed's η-degree,
    survives roughly in proportion to the seed's evolving support (denser
    sets prune later), and deepens with the component (capped by
    ``max_sensors``).  Direction-aware doubles each expansion; delay δ
    multiplies it by the ``2δ+1`` delay choices.  Only relative magnitudes
    matter — the planner balances shards with it.
    """
    support = len(evolving[seed])
    if support < params.min_support:
        return 1.0
    breadth = 1.0 + len(adjacency[seed])
    if params.direction_aware:
        breadth *= 2.0
    if params.max_delay > 0:
        breadth *= 2.0 * params.max_delay + 1.0
    depth = component_size
    if params.max_sensors is not None:
        depth = min(depth, params.max_sensors)
    return 1.0 + support * breadth * math.log2(depth + 1.0)


def plan_shards(
    components: Sequence[Sequence[str]],
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    n_workers: int,
) -> list[list[ShardUnit]]:
    """Partition components into cost-balanced shards.

    Components whose estimated cost exceeds an even per-worker share are
    split into contiguous seed runs.  Units are then packed greedily into at
    most ``n_workers * 4`` shards, biggest unit first onto the least
    loaded shard (LPT), which bounds the makespan far tighter than
    round-robin when component sizes are skewed.
    """
    order = {sid: i for i, sid in enumerate(sorted(adjacency))}
    per_component: list[tuple[int, list[str], dict[str, float], float]] = []
    for ci, component in enumerate(components):
        members = sorted(component, key=lambda sid: order[sid])
        costs = {
            sid: estimate_seed_cost(sid, adjacency, evolving, len(members), params)
            for sid in members
        }
        per_component.append((ci, members, costs, sum(costs.values())))
    total = sum(entry[3] for entry in per_component)
    if total <= 0:
        return []
    fair_share = total / max(1, n_workers)
    units: list[ShardUnit] = []
    for ci, members, costs, component_cost in per_component:
        if component_cost <= fair_share or len(members) < 2:
            units.append(ShardUnit(ci, None, -1, component_cost))
            continue
        # Oversized: contiguous seed runs of roughly one pool-slot each.
        target = component_cost / (n_workers * _SHARDS_PER_WORKER)
        run: list[str] = []
        run_cost = 0.0
        for sid in members:
            run.append(sid)
            run_cost += costs[sid]
            if run_cost >= target:
                units.append(ShardUnit(ci, tuple(run), order[run[0]], run_cost))
                run, run_cost = [], 0.0
        if run:
            units.append(ShardUnit(ci, tuple(run), order[run[0]], run_cost))
    n_shards = max(1, min(len(units), n_workers * _SHARDS_PER_WORKER))
    shards: list[list[ShardUnit]] = [[] for _ in range(n_shards)]
    loads = [(0.0, i) for i in range(n_shards)]
    heapq.heapify(loads)
    for unit in sorted(units, key=lambda u: (-u.cost, u.tag)):
        load, i = heapq.heappop(loads)
        shards[i].append(unit)
        heapq.heappush(loads, (load + unit.cost, i))
    return [shard for shard in shards if shard]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass
class _RunSpec:
    """Everything a worker needs, shared once per run (fork: zero-copy)."""

    params: MiningParameters
    adjacency: dict[str, set[str]]
    attributes: dict[str, str]
    components: list[list[str]]
    evolving: Mapping[str, EvolvingSet]
    order: dict[str, int]


#: The run's inputs, inherited by forked workers (or installed by the spawn
#: initializer).
_SPEC: _RunSpec | None = None


def _install_spec(spec: _RunSpec | None) -> None:
    global _SPEC
    _SPEC = spec


def run_shard_units(
    adjacency: Mapping[str, set[str]],
    attributes: Mapping[str, str],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    components: Sequence[Sequence[str]],
    units: Sequence[ShardUnit],
    order: Mapping[str, int] | None = None,
    control: MiningControl | None = None,
) -> list[tuple[tuple[int, int], list[PatternRow]]]:
    """Execute shard units against prepared inputs; ``(merge_tag, rows)`` pairs.

    The single execution core of step 4: the in-process run of
    :func:`sharded_search`, its pool workers (:func:`_run_shard`) and the
    distributed shard sub-jobs (:mod:`repro.jobs.planner`) all run
    *exactly* this, so a unit produces the same pattern rows
    (:data:`~repro.core.types.PatternRow`) wherever it executes —
    the precondition for every merge being byte-identical.  ``order`` is
    the canonical rank map, computed once here when ``None`` and handed to
    every unit's search.  With a ``control``, progress is reported and
    cancellation polled between units.

    Raises
    ------
    NotImplementedError
        For direction-aware delayed mining
        (:func:`repro.core.search.check_supported`) — checked here so that
        no execution path can mine that combination.
    """
    from .search import check_supported, search_component

    check_supported(params)
    if order is None:
        order = {sid: i for i, sid in enumerate(sorted(adjacency))}
    profiler = getattr(control, "profiler", None) if control is not None else None
    out: list[tuple[tuple[int, int], list[PatternRow]]] = []
    for done, unit in enumerate(units, start=1):
        if control is not None:
            control.checkpoint()
        component = components[unit.component_index]
        unit_started = time.perf_counter() if profiler is not None else 0.0
        rows = search_component(
            component, adjacency, attributes, evolving,
            params, seeds=unit.seeds, order=order,
        )
        if profiler is not None:
            # Measured next to the planner's cost estimate — the pair is
            # what calibrating estimate_seed_cost needs.
            seconds = time.perf_counter() - unit_started
            profiler.record("search", seconds)
            profiler.record_unit(
                f"c{unit.component_index}:r{unit.first_rank}",
                seconds,
                cost=unit.cost,
                caps=len(rows),
            )
        out.append((unit.tag, rows))
        if control is not None:
            control.report(done, len(units))
    return out


def merge_tagged(
    tagged: list[tuple[tuple[int, int], list[PatternRow]]]
) -> list[PatternRow]:
    """Sort unit outputs by merge tag and concatenate: serial emission order.

    The merge half of the shard protocol — callers then apply the
    post-pass, ``dedupe_strongest``.
    """
    tagged = sorted(tagged, key=lambda pair: pair[0])
    return [row for _tag, rows in tagged for row in rows]


def _run_shard(shard: list[ShardUnit]) -> list[tuple[tuple[int, int], list[PatternRow]]]:
    """Execute one shard's units in a pool worker (spec via fork/initializer)."""
    spec = _SPEC
    assert spec is not None
    return run_shard_units(
        spec.adjacency,
        spec.attributes,
        spec.evolving,
        spec.params,
        spec.components,
        shard,
        order=spec.order,
    )


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_sharded(
    spec: _RunSpec,
    shards: list[list[ShardUnit]],
    n_workers: int,
    control: MiningControl | None = None,
) -> list[tuple[tuple[int, int], list[PatternRow]]]:
    """Run shards on a pool; the tagged unit outputs, in completion order.

    Shards stream back as they finish (``imap_unordered`` — the merge
    re-sorts by tag, so completion order never affects output).  With a
    ``control``, progress is reported per completed shard and cancellation
    is checked between completions; a cancel tears the pool down via
    ``Pool.__exit__``'s ``terminate()``.
    """
    ctx = _pool_context()
    forked = ctx.get_start_method() == "fork"
    if forked:
        # Set before the fork so children inherit the sets as they are.
        _install_spec(spec)
        initializer, initargs = None, ()
    else:  # pragma: no cover - spawn-only platforms
        initializer, initargs = _install_spec, (spec,)
    processes = max(1, min(n_workers, len(shards)))
    tagged: list[tuple[tuple[int, int], list[PatternRow]]] = []
    try:
        with ctx.Pool(
            processes=processes, initializer=initializer, initargs=initargs
        ) as pool:
            if control is not None:
                control.checkpoint()
            for done, result in enumerate(
                pool.imap_unordered(_run_shard, shards), start=1
            ):
                tagged.extend(result)
                if control is not None:
                    control.report(done, len(shards))
                    control.checkpoint()
    finally:
        if forked:
            _install_spec(None)
    return tagged


def _mining_components(adjacency: Mapping[str, set[str]]) -> list[list[str]]:
    """Minable components in the serial visit order, members rank-sorted."""
    order = {sid: i for i, sid in enumerate(sorted(adjacency))}
    return [
        sorted(component, key=lambda sid: order[sid])
        for component in connected_components(adjacency)
        if len(component) >= 2
    ]


def sharded_search(
    sensors: Sequence[Sensor],
    adjacency: Mapping[str, set[str]],
    evolving: Mapping[str, EvolvingSet],
    params: MiningParameters,
    control: MiningControl | None = None,
) -> list[PatternRow]:
    """Step 4's one driver: plan units, run them, merge by tag.

    Returns the merged raw pattern rows in serial emission order; the caller
    (``search_all``) applies the post-pass, ``dedupe_strongest``.  When
    ``params.n_jobs`` resolves to more than one worker and
    :func:`plan_shards` yields more than one shard, the shards run on a
    process pool; otherwise each component is one whole unit run in this
    process.  The output is the same either way.
    """
    components = _mining_components(adjacency)
    attributes = {s.sensor_id: s.attribute for s in sensors}
    n_workers = resolve_jobs(params.n_jobs)
    shards = (
        plan_shards(components, adjacency, evolving, params, n_workers)
        if n_workers > 1
        else []
    )
    if len(shards) > 1:
        for evolving_set in evolving.values():
            evolving_set.bits  # built once here, not once per worker
        spec = _RunSpec(
            params=params,
            adjacency=dict(adjacency),
            attributes=attributes,
            components=components,
            evolving=evolving,
            order={sid: i for i, sid in enumerate(sorted(adjacency))},
        )
        tagged = _run_sharded(spec, shards, n_workers, control)
    else:
        units = [ShardUnit(ci, None, -1, 0.0) for ci in range(len(components))]
        tagged = run_shard_units(
            adjacency, attributes, evolving, params, components, units,
            control=control,
        )
    return merge_tagged(tagged)
