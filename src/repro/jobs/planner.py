"""Planner for distributed mining: one mine → shard sub-jobs → merge.

The distributed engine (ROADMAP: "one job, many workers") promotes the
PR 2 shard decomposition to durable sub-jobs.  This module is the *pure*
half of that machinery — everything deterministic, nothing store- or
server-aware — so the planner, every shard worker, and the merge step can
each recompute exactly the same facts from the same stored inputs:

* :func:`prepare` — the deterministic preprocessing prefix of
  :meth:`repro.core.miner.MiscelaMiner.mine` (evolving extraction,
  η-proximity graph, component list).  Share-nothing by design: a shard
  worker on another machine re-derives it from the dataset rather than
  shipping bitmaps through the store.
* :func:`plan_mine` — drives :func:`repro.core.parallel.plan_shards` with a
  **fixed** planning width (stored on the parent job), so the shard set is
  a deterministic function of (dataset, parameters, plan_workers) and a
  crashed planner can be re-run idempotently.
* :func:`execute_units` — runs one shard's units through
  :func:`repro.core.parallel.run_shard_units`, the execution core step 4's
  one driver (:func:`repro.core.parallel.sharded_search`) runs in process
  and on its pool, returning JSON-serialisable ``(tag, caps)`` output
  documents (CAP round-trips are lossless).  A direction-aware delayed
  mine raises there, as it does on every other path.
* :func:`merge_outputs` — re-sorts every shard's tagged output into serial
  emission order (:func:`repro.core.parallel.merge_tagged`) and applies
  the mode's post-pass, reproducing ``MiscelaMiner.mine``'s CAP list
  byte-for-byte.

So a distributed mine is the driver's plan → run units → merge with the
three stages split across durable jobs.

The stateful half — sub-job documents, readiness, parent resolution, and
the planner, shard and merge runners that glue both to the server — lives
in :mod:`repro.jobs.distributed`; leases, retries and dead-lettering are
the registry's (:class:`repro.jobs.durable.DurableJobStore`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..core.delayed import finalize_delayed
from ..core.evolving import extract_all_evolving
from ..core.parallel import (
    MiningControl,
    ShardUnit,
    _mining_components,
    merge_tagged,
    plan_shards,
    run_shard_units,
)
from ..core.parameters import MiningParameters
from ..core.search import dedupe_strongest
from ..core.spatial import build_proximity_graph
from ..core.types import CAP, SensorDataset

__all__ = [
    "PLAN_WORKERS_DEFAULT",
    "MODE_SEARCH",
    "MODE_DELAYED",
    "MinePlan",
    "prepare",
    "plan_mine",
    "unit_to_document",
    "unit_from_document",
    "execute_units",
    "merge_outputs",
]

#: Default planning width.  Deliberately *not* ``os.cpu_count()``: the plan
#: must be a pure function of the submission so re-planning after a planner
#: crash (possibly on a different machine) regenerates identical sub-jobs.
PLAN_WORKERS_DEFAULT = 4

#: Maximum accepted planning width (a submission knob; bounds fan-out).
PLAN_WORKERS_MAX = 64

MODE_SEARCH = "search"
MODE_DELAYED = "delayed"


@dataclass
class MinePlan:
    """A deterministic split of one mine into shard unit-lists."""

    mode: str
    horizon: int
    shards: list[list[ShardUnit]]

    @property
    def shard_documents(self) -> list[list[dict[str, Any]]]:
        return [[unit_to_document(u) for u in shard] for shard in self.shards]


def prepare(
    dataset: SensorDataset, params: MiningParameters
) -> tuple[MiningParameters, dict, dict, list, dict]:
    """The deterministic preprocessing every distributed actor recomputes.

    Returns ``(serial_params, evolving, adjacency, components, attributes)``
    — exactly the state :meth:`MiscelaMiner.mine` builds before step 4, with
    ``n_jobs`` forced to 1 (shard workers never nest process pools).
    """
    serial = params.with_updates(n_jobs=1)
    evolving = extract_all_evolving(dataset, serial)
    adjacency = build_proximity_graph(list(dataset), serial.distance_threshold)
    components = _mining_components(adjacency)
    attributes = {s.sensor_id: s.attribute for s in dataset}
    return serial, evolving, adjacency, components, attributes


def plan_mine(
    dataset: SensorDataset,
    params: MiningParameters,
    plan_workers: int = PLAN_WORKERS_DEFAULT,
) -> MinePlan:
    """Split one mine into cost-balanced shard unit-lists.

    Pure: same (dataset, parameters, plan_workers) → same plan, which makes
    crashed-planner re-planning idempotent (sub-job ids are derived from
    shard indices) and lets any process verify a plan it did not produce.
    """
    if plan_workers < 1:
        raise ValueError(f"plan_workers must be >= 1, got {plan_workers}")
    serial, evolving, adjacency, components, _attributes = prepare(dataset, params)
    mode = MODE_DELAYED if serial.max_delay > 0 else MODE_SEARCH
    shards = plan_shards(components, adjacency, evolving, serial, plan_workers)
    return MinePlan(mode=mode, horizon=dataset.num_timestamps, shards=shards)


def unit_to_document(unit: ShardUnit) -> dict[str, Any]:
    return {
        "component_index": unit.component_index,
        "seeds": list(unit.seeds) if unit.seeds is not None else None,
        "first_rank": unit.first_rank,
        "cost": unit.cost,
    }


def unit_from_document(document: Mapping[str, Any]) -> ShardUnit:
    seeds = document.get("seeds")
    return ShardUnit(
        component_index=int(document["component_index"]),
        seeds=tuple(seeds) if seeds is not None else None,
        first_rank=int(document["first_rank"]),
        cost=float(document.get("cost", 0.0)),
    )


def execute_units(
    dataset: SensorDataset,
    params: MiningParameters,
    unit_documents: Sequence[Mapping[str, Any]],
    mode: str,
    horizon: int,
    control: MiningControl | None = None,
) -> list[dict[str, Any]]:
    """Run one shard sub-job's units; returns tagged output documents.

    Recomputes the deterministic preprocessing locally, executes the
    persisted units through the shared execution core, and serialises each
    unit's caps with its merge tag: ``{"tag": [ci, rank], "caps": [...]}``.

    With a ``control`` carrying a profiler, the three phases are timed
    separately: ``prepare`` (preprocessing recomputation), ``search``
    (recorded per unit inside the execution core), and ``emit`` (output
    serialisation).
    """
    profiler = getattr(control, "profiler", None) if control is not None else None
    prepare_started = time.perf_counter() if profiler is not None else 0.0
    serial, evolving, adjacency, components, attributes = prepare(dataset, params)
    if profiler is not None:
        profiler.record("prepare", time.perf_counter() - prepare_started)
    units = [unit_from_document(doc) for doc in unit_documents]
    for unit in units:
        if unit.component_index >= len(components):
            raise ValueError(
                f"shard unit references component {unit.component_index} but "
                f"the dataset now yields {len(components)} components — the "
                f"plan no longer matches its inputs"
            )
    tagged = run_shard_units(
        mode, adjacency, attributes, evolving, serial, components, units,
        horizon=horizon, control=control,
    )
    emit_started = time.perf_counter() if profiler is not None else 0.0
    out = [
        {"tag": [tag[0], tag[1]], "caps": [cap.to_document() for cap in caps]}
        for tag, caps in tagged
    ]
    if profiler is not None:
        profiler.record("emit", time.perf_counter() - emit_started)
    return out


def merge_outputs(
    mode: str, outputs: Sequence[Mapping[str, Any]]
) -> list[CAP]:
    """Reassemble every shard's tagged output into the serial CAP list.

    ``outputs`` is the concatenation of all shards' output documents, in any
    order — the merge tag restores serial emission order, and the mode's
    post-pass (the same one the serial engine ends with) runs once over the
    merged stream.  Byte-identical to a serial mine of the same inputs.
    """
    tagged = [
        (
            (int(entry["tag"][0]), int(entry["tag"][1])),
            [CAP.from_document(doc) for doc in entry["caps"]],
        )
        for entry in outputs
    ]
    merged = merge_tagged(tagged)
    if mode == MODE_DELAYED:
        return finalize_delayed(merged, emit_all_assignments=False)
    return dedupe_strongest(merged)
