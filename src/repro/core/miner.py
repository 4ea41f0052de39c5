"""Miner facades — the public entry points for CAP mining.

:class:`MiscelaMiner` wires the four MISCELA steps together:

1. linear segmentation (inside evolving extraction, per the parameters),
2. evolving-timestamp extraction,
3. proximity graph + connected components,
4. tree-structured CAP search (time-delayed when δ > 0).

:class:`NaiveMiner` runs the exhaustive baseline over the same steps 1–3 so
the two are comparable input-for-input.  Both return
:class:`MiningResult`, which carries the CAPs plus the intermediate products
the visualization layer needs (evolving sets, proximity graph) and basic
timing for the caching/efficiency benchmarks.

A result's CAPs are a :class:`~repro.core.result_columns.ResultTable`:
:class:`MiscelaMiner` builds it straight from the search's ranked pattern
rows, so a cold mine constructs no ``CAP`` object — the cache packs the
table's columns, and pages, filters and map clicks build CAPs (or CAP
documents) for the rows they return only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .baseline import naive_search
from .evolving import extract_all_evolving
from .parallel import MiningControl
from .parameters import MiningParameters
from .result_columns import ResultTable
from .search import search_all
from .spatial import build_proximity_graph, connected_components
from .types import CAP, EvolvingSet, SensorDataset

#: perfbench/layers.py traces step 4 under this name too; it is its only
#: consumer.
parallel_search_all = search_all

__all__ = ["MiningResult", "MiscelaMiner", "NaiveMiner"]


@dataclass
class MiningResult:
    """The output of one mining run.

    Attributes
    ----------
    dataset_name, parameters:
        Identify the run (together they form the cache key).
    caps:
        The discovered patterns, strongest support first: a
        :class:`~repro.core.result_columns.ResultTable`, a read-only
        sequence of :class:`~repro.core.types.CAP` that builds a CAP only
        when one is read (a plain CAP list passed in is converted).
    evolving:
        Per-sensor evolving sets (kept so charts can mark evolution points).
    adjacency:
        The η-proximity graph (kept so maps can draw closeness edges).
    elapsed_seconds:
        Wall-clock time of the mining computation.
    from_cache:
        Set by the cache layer when the result was replayed, not computed.
    """

    dataset_name: str
    parameters: MiningParameters
    caps: ResultTable
    evolving: Mapping[str, EvolvingSet] = field(default_factory=dict)
    adjacency: Mapping[str, set[str]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    from_cache: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.caps, ResultTable):
            self.caps = ResultTable.from_caps(self.caps)

    @property
    def num_caps(self) -> int:
        return len(self.caps)

    def caps_containing(self, sensor_id: str) -> list[CAP]:
        """Patterns that include one sensor — the map's click interaction.

        Served from the table's inverted index (positions stay in caps
        order), so a click costs O(patterns containing the sensor), not
        O(all patterns).
        """
        return self.caps.caps(self.caps.sensor_rows(sensor_id))

    def correlated_sensors(self, sensor_id: str) -> set[str]:
        """Sensors correlated with the given one via any CAP (highlighting)."""
        correlated: set[str] = set()
        for cap in self.caps_containing(sensor_id):
            correlated |= cap.sensor_ids
        correlated.discard(sensor_id)
        return correlated

    def to_document(self) -> dict[str, object]:
        """JSON-serialisable form: the export and CAP-page shape.

        The result cache stores the columnar layout of
        :mod:`repro.core.result_columns` instead.
        """
        return {
            "dataset": self.dataset_name,
            "parameters": self.parameters.to_document(),
            "caps": self.caps.documents(),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_document(cls, doc: Mapping[str, object]) -> "MiningResult":
        """A stored ``"encoding": 2`` result (:mod:`.result_columns`); its
        CAP columns are decoded as reads first need them."""
        return cls(
            dataset_name=str(doc["dataset"]),
            parameters=MiningParameters.from_document(doc["parameters"]),  # type: ignore[arg-type]
            caps=ResultTable.from_columns(doc),
            elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),  # type: ignore[arg-type]
            from_cache=True,
        )


class MiscelaMiner:
    """The efficient CAP miner (the paper's MISCELA).

    Parameters
    ----------
    params:
        Mining parameters (ε, η, μ, ψ and extensions).  ``params.n_jobs``
        sets step 4's worker count: ``1`` runs every component in this
        process, anything else may shard the search across a process pool
        (:func:`repro.core.parallel.sharded_search`) with identical output.
    """

    def __init__(self, params: MiningParameters) -> None:
        self.params = params

    def mine(
        self, dataset: SensorDataset, control: MiningControl | None = None
    ) -> MiningResult:
        """Run the four MISCELA steps over a dataset.

        ``control`` (optional) makes the run observable and cancellable: it
        is passed through to step 4, which reports per-unit (in process) or
        per-shard (pooled) progress through it and polls it for cooperative
        cancellation, raising :class:`~repro.core.parallel.MiningCancelled`
        at the next checkpoint when requested.  The mined CAPs are identical
        with or without one.  ``search_all`` is looked up through this
        module's globals on every call, so wrapping it here instruments
        step 4 in every mode.
        """
        start = time.perf_counter()
        if control is not None:
            control.checkpoint()
        evolving = extract_all_evolving(dataset, self.params)
        if control is not None:
            control.checkpoint()
        adjacency = build_proximity_graph(list(dataset), self.params.distance_threshold)
        rows = search_all(
            list(dataset), adjacency, evolving, self.params, control=control
        )
        caps = ResultTable.from_rows(rows, delayed=self.params.max_delay > 0)
        elapsed = time.perf_counter() - start
        return MiningResult(
            dataset_name=dataset.name,
            parameters=self.params,
            caps=caps,
            evolving=evolving,
            adjacency=adjacency,
            elapsed_seconds=elapsed,
        )

    def components(self, dataset: SensorDataset) -> list[set[str]]:
        """The spatially connected sensor sets (step 3 output), for inspection."""
        adjacency = build_proximity_graph(list(dataset), self.params.distance_threshold)
        return connected_components(adjacency)


class NaiveMiner:
    """Exhaustive baseline miner with identical inputs and outputs.

    Only usable on small components (exponential search); see
    :func:`repro.core.baseline.naive_search`.  A serial-only oracle:
    ``params.n_jobs`` is ignored, and no execution code is shared with
    :class:`MiscelaMiner`'s step 4.
    """

    def __init__(
        self,
        params: MiningParameters,
        max_component_size: int = 20,
    ) -> None:
        if params.max_delay > 0:
            raise NotImplementedError("the naive baseline mines simultaneous CAPs only")
        self.params = params
        self.max_component_size = max_component_size

    def mine(self, dataset: SensorDataset) -> MiningResult:
        start = time.perf_counter()
        evolving = extract_all_evolving(dataset, self.params)
        adjacency = build_proximity_graph(list(dataset), self.params.distance_threshold)
        caps = naive_search(
            list(dataset),
            adjacency,
            evolving,
            self.params,
            max_component_size=self.max_component_size,
        )
        elapsed = time.perf_counter() - start
        return MiningResult(
            dataset_name=dataset.name,
            parameters=self.params,
            caps=caps,
            evolving=evolving,
            adjacency=adjacency,
            elapsed_seconds=elapsed,
        )
