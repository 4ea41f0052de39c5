"""Streaming / incremental CAP mining.

Smart-city feeds are continuous ("collected data ... is used for
continuously and cooperatively monitoring urban conditions"), but the demo
system re-mines from scratch per request.  This extension maintains the
expensive intermediate state — per-sensor evolving sets — incrementally as
new measurement batches arrive, so interactive re-mining after an append
skips step 2 entirely and step 3 whenever the fleet is unchanged.

The contract (checked by property tests): after any sequence of
:meth:`StreamingMiner.extend` calls, :meth:`StreamingMiner.mine` returns
exactly what a batch :class:`~repro.core.miner.MiscelaMiner` returns on the
concatenated dataset.

The per-sensor int bitmaps (:mod:`repro.core.bitset`) the search runs on
are maintained incrementally too: each append packs only the batch's tail
and ORs it in above the existing bits, so re-mining after an extend never
re-packs the full history.

Limitations (by design):

* the sensor fleet is fixed at construction (new sensors = new miner);
* segmentation must be ``"none"`` — piecewise-linear smoothing is a global
  operation, so incremental evolving extraction under it would not match
  the batch result.
"""

from __future__ import annotations

import base64
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .evolving import extract_evolving
from .miner import MiningResult
from .parameters import MiningParameters
from .result_columns import (
    ResultTable,
    decode_floats,
    encode_floats,
    pack_column,
    unpack_column,
)
from .search import search_all
from .spatial import build_proximity_graph, component_of
from .types import EvolvingSet, Sensor, SensorDataset

__all__ = ["CHECKPOINT_ENCODING", "StreamingMiner", "pack_checkpoint", "unpack_checkpoint"]


class StreamingMiner:
    """Incremental miner over an append-only measurement stream.

    Parameters
    ----------
    params:
        Mining parameters; ``segmentation`` must be ``"none"``.
    initial:
        The dataset holding the fleet and the first measurements.
    """

    def __init__(self, params: MiningParameters, initial: SensorDataset) -> None:
        if params.segmentation != "none":
            raise ValueError(
                "StreamingMiner requires segmentation='none'; smoothing is a "
                "whole-series operation and cannot be maintained incrementally"
            )
        self.params = params
        self._name = initial.name
        self._sensors: list[Sensor] = list(initial)
        self._timeline: list[datetime] = list(initial.timeline)
        self._values: dict[str, np.ndarray] = {
            s.sensor_id: initial.values(s.sensor_id).copy() for s in self._sensors
        }
        # The η-graph depends only on the fleet: build once.
        self._adjacency = build_proximity_graph(
            self._sensors, params.distance_threshold
        )
        self._evolving: dict[str, EvolvingSet] = {}
        for sensor in self._sensors:
            self._evolving[sensor.sensor_id] = extract_evolving(
                self._values[sensor.sensor_id], params.rate_for(sensor.attribute)
            )
        self._appends = 0
        #: Sensors whose evolving set gained events in the most recent
        #: :meth:`extend` — the seed set for :meth:`affected_components`.
        self.last_changed_sensors: set[str] = set()

    # -- state ------------------------------------------------------------------

    @property
    def num_timestamps(self) -> int:
        return len(self._timeline)

    @property
    def appends(self) -> int:
        """How many extend() batches have been absorbed."""
        return self._appends

    def dataset(self) -> SensorDataset:
        """The current full dataset (a copy; mutating it won't affect the miner)."""
        return SensorDataset(
            self._name,
            self._timeline,
            self._sensors,
            {sid: v.copy() for sid, v in self._values.items()},
        )

    # -- checkpoint / restore ----------------------------------------------------

    def export_state(self) -> dict:
        """A JSON-serialisable checkpoint of the incremental state.

        Mining consumes only the evolving sets, the (fleet-derived)
        η-graph, and the timeline length; :meth:`extend` additionally
        reads one value per sensor — the last one — for the boundary
        transition.  The checkpoint therefore carries exactly those
        pieces, which is what makes *windowed replay* sound: a fresh
        miner built on the base dataset plus :meth:`adopt_state` mines
        byte-identically without the observation history in between.

        The layout is packed columns (:func:`pack_checkpoint`):
        ``encoding`` (2), ``num_timestamps``, ``last_timestamp``, the
        fleet's ``sensors`` in order, ``last_values`` as one base64
        ``<f8`` column (NaN = missing), and the evolving sets as
        per-sensor ``counts`` plus the concatenated ``indices`` (both
        narrowest-width int columns) and ``increasing``, the base64 of
        one packed bit per event (1 = +1, 0 = −1).
        """
        return pack_checkpoint(
            len(self._timeline),
            self._timeline[-1].isoformat(),
            [self._values[sensor.sensor_id][-1] for sensor in self._sensors],
            self._evolving,
        )

    def adopt_state(self, state: Mapping) -> None:
        """Fast-forward a freshly-built miner to an exported checkpoint.

        Must be called before any :meth:`extend`.  The timeline is
        regrown on the sampling grid (appends are grid-validated, so
        positions are computable); values between the base and the
        checkpoint are NaN-padded — only the final value matters to the
        next boundary transition, and evolving status never looks
        further back than one step (``extract_evolving`` differences
        adjacent positions only).  After adoption :meth:`dataset`
        reflects the padded window, not the full history.

        Only the packed layout of :meth:`export_state` is read; any other
        raises a ``ValueError`` naming ``repro store upgrade``.
        """
        target, last_values, evolving = unpack_checkpoint(state)
        old_n = len(self._timeline)
        if target < old_n:
            raise ValueError(
                f"checkpoint covers {target} timestamps but the base dataset "
                f"already has {old_n}; cannot rewind a miner"
            )
        if self._appends:
            raise ValueError("adopt_state must precede any extend()")
        if set(evolving) != set(self._evolving):
            raise ValueError("checkpoint names a different sensor fleet")
        if target > old_n:
            interval = self._timeline[1] - self._timeline[0]
            last = self._timeline[-1]
            self._timeline.extend(
                last + interval * step for step in range(1, target - old_n + 1)
            )
        for sensor in self._sensors:
            sid = sensor.sensor_id
            if target > old_n:
                padded = np.full(target, np.nan, dtype=np.float64)
                padded[:old_n] = self._values[sid]
                padded[-1] = last_values[sid]
                self._values[sid] = padded
            self._evolving[sid] = evolving[sid]
        self.last_changed_sensors = set()

    # -- appends ----------------------------------------------------------------

    def extend(
        self,
        timeline: Sequence[datetime],
        measurements: Mapping[str, np.ndarray],
    ) -> int:
        """Append a batch of timestamps and measurements.

        Every sensor must provide an array of ``len(timeline)`` values
        (NaN for missing readings).  Timestamps must continue the existing
        grid.  Returns the number of new evolving timestamps discovered
        across all sensors.

        Incremental trick: with ε-thresholded differencing, the evolving
        status of timestamp ``t`` depends only on values at ``t-1`` and
        ``t``, so re-extracting from one step before the append boundary
        and offsetting yields exactly the batch result for the tail.
        """
        timeline = list(timeline)
        if not timeline:
            raise ValueError("timeline batch must be non-empty")
        interval = self._timeline[1] - self._timeline[0]
        expected = self._timeline[-1] + interval
        for i, t in enumerate(timeline):
            if t != expected:
                raise ValueError(
                    f"timestamp {t} breaks the grid; expected {expected} "
                    f"(batch position {i})"
                )
            expected = t + interval
        missing = {s.sensor_id for s in self._sensors} - set(measurements)
        if missing:
            raise ValueError(f"batch lacks measurements for sensors: {sorted(missing)}")

        old_n = len(self._timeline)
        self._timeline.extend(timeline)
        new_events = 0
        changed: set[str] = set()
        for sensor in self._sensors:
            sid = sensor.sensor_id
            batch = np.asarray(measurements[sid], dtype=np.float64)
            if batch.ndim != 1 or batch.shape[0] != len(timeline):
                raise ValueError(
                    f"batch for {sid!r} must be 1-D of length {len(timeline)}, "
                    f"got shape {batch.shape}"
                )
            self._values[sid] = np.concatenate([self._values[sid], batch])
            # Re-extract the tail only: one step of overlap catches the
            # boundary transition (old last value -> first new value).
            tail = self._values[sid][old_n - 1 :]
            tail_evolving = extract_evolving(tail, self.params.rate_for(sensor.attribute))
            # Only the tail is validated and packed: the merge checks the
            # seam and ORs the tail's bits in above the old bitmaps.
            self._evolving[sid] = self._evolving[sid].append(
                tail_evolving, old_n - 1, len(self._timeline)
            )
            if len(tail_evolving):
                changed.add(sid)
            new_events += len(tail_evolving)
        self._appends += 1
        self.last_changed_sensors = changed
        return new_events

    def affected_components(self) -> list[set[str]]:
        """η-graph components reachable from the last extend's changed sensors.

        CAPs are confined to connected components of the proximity graph,
        and the search consumes only the evolving sets, so when a batch
        changes no evolving set inside a component that component's CAP
        list is provably unchanged.  An empty return therefore means the
        whole re-mine can be skipped: no CAP anywhere could have changed.
        """
        components: list[set[str]] = []
        seen: set[str] = set()
        for sid in sorted(self.last_changed_sensors):
            if sid not in seen:
                component = component_of(self._adjacency, sid)
                seen |= component
                components.append(component)
        return components

    # -- mining -----------------------------------------------------------------

    def mine(self) -> MiningResult:
        """Mine the current stream state (step 2 and 3 already maintained)."""
        import time

        start = time.perf_counter()
        rows = search_all(self._sensors, self._adjacency, self._evolving, self.params)
        caps = ResultTable.from_rows(rows, delayed=self.params.max_delay > 0)
        elapsed = time.perf_counter() - start
        return MiningResult(
            dataset_name=self._name,
            parameters=self.params,
            caps=caps,
            evolving=dict(self._evolving),
            adjacency=self._adjacency,
            elapsed_seconds=elapsed,
        )


#: ``"encoding"`` of the packed checkpoint :func:`pack_checkpoint` writes.
CHECKPOINT_ENCODING = 2


def pack_checkpoint(
    num_timestamps: int,
    last_timestamp: str,
    last_values: Sequence[float | None],
    evolving: Mapping[str, EvolvingSet],
) -> dict:
    """The packed miner checkpoint (layout: :meth:`StreamingMiner.export_state`).

    ``evolving`` maps the fleet's sensor ids, in order, to their sets;
    ``last_values`` follows that order, ``None`` or NaN for missing.
    """
    sets = list(evolving.values())
    directions = np.concatenate([ev.directions for ev in sets]) if sets else np.empty(0)
    return {
        "encoding": CHECKPOINT_ENCODING,
        "num_timestamps": int(num_timestamps),
        "last_timestamp": last_timestamp,
        "sensors": list(evolving),
        "last_values": encode_floats(
            np.array([np.nan if v is None else v for v in last_values], dtype=np.float64)
        ),
        "counts": pack_column([len(ev) for ev in sets]),
        "indices": pack_column(
            np.concatenate([ev.indices for ev in sets]) if sets else []
        ),
        "increasing": base64.b64encode(np.packbits(directions > 0).tobytes()).decode("ascii"),
    }


def unpack_checkpoint(
    state: Mapping,
) -> tuple[int, dict[str, float], dict[str, EvolvingSet]]:
    """``(num_timestamps, last value by sensor, evolving set by sensor)``
    of a :func:`pack_checkpoint` document; NaN marks a missing last value."""
    if state.get("encoding") != CHECKPOINT_ENCODING:
        raise ValueError(
            f"stream checkpoint encoding {state.get('encoding')!r} is not "
            f"{CHECKPOINT_ENCODING}; run `repro store upgrade --store <path>`"
        )
    sensors = list(state["sensors"])
    counts = unpack_column(state["counts"])
    indices = np.asarray(unpack_column(state["indices"]), dtype=np.int64)
    increasing = np.unpackbits(
        np.frombuffer(base64.b64decode(state["increasing"]), dtype=np.uint8),
        count=len(indices),
    )
    directions = np.where(increasing == 1, 1, -1).astype(np.int8)
    if len(counts) != len(sensors) or sum(counts) != len(indices):
        raise ValueError("stream checkpoint columns disagree on their lengths")
    cuts = np.cumsum(counts)[:-1]
    evolving = {
        sid: EvolvingSet(idx, dirs)
        for sid, idx, dirs in zip(
            sensors, np.split(indices, cuts), np.split(directions, cuts)
        )
    }
    last_values = dict(zip(sensors, decode_floats(state["last_values"]).tolist()))
    return int(state["num_timestamps"]), last_values, evolving
