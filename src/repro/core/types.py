"""Core data model for CAP mining.

This module defines the vocabulary shared by the whole library:

* :class:`Sensor` — one physical sensor measuring one attribute at a fixed
  location.  Following the paper (Section 4, footnote 2), co-located sensors
  with different attributes are distinct sensors.
* :class:`SensorDataset` — a synchronized collection of sensors: every sensor
  measures at the same timestamps, missing readings are NaN.
* :class:`EvolvingSet` — the timestamps at which one sensor's measurement
  changed by at least the evolving rate, together with the change direction.
* :class:`CAP` — a correlated attribute pattern: a spatially connected set of
  sensors covering at least two attributes that co-evolve frequently.
* :data:`PatternRow` — one CAP as the search emits it, before any ``CAP``
  object exists.

Datasets keep their measurements as dense ``numpy`` arrays indexed by the
shared timeline, which is what makes the mining passes cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Direction",
    "Sensor",
    "SensorDataset",
    "EvolvingSet",
    "CAP",
    "PatternRow",
    "EARTH_RADIUS_KM",
    "haversine_km",
]

EARTH_RADIUS_KM = 6371.0088

#: Direction of an evolving step: +1 for increase, -1 for decrease.
Direction = int

INCREASING: Direction = 1
DECREASING: Direction = -1


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS-84 points, in kilometres.

    This is the distance the paper's distance threshold ``eta`` is compared
    against when deciding whether two sensors are "spatially close".
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True, slots=True)
class Sensor:
    """A single sensor: one attribute measured at one location.

    Attributes
    ----------
    sensor_id:
        Unique identifier (the ``id`` column of ``location.csv``).
    attribute:
        Name of the measured attribute (``temperature``, ``traffic_volume``,
        ``pm25`` ...).  Must appear in the dataset's attribute registry.
    lat, lon:
        WGS-84 coordinates.
    """

    sensor_id: str
    attribute: str
    lat: float
    lon: float

    def distance_km(self, other: "Sensor") -> float:
        """Haversine distance to another sensor in kilometres."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)

    def __post_init__(self) -> None:
        if not self.sensor_id:
            raise ValueError("sensor_id must be a non-empty string")
        if not self.attribute:
            raise ValueError("attribute must be a non-empty string")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat!r}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon!r}")


class SensorDataset:
    """A synchronized multi-sensor dataset.

    All sensors share one timeline (the paper requires "timestamps must be
    the same time intervals").  Measurements are stored as one float array per
    sensor; missing values (``null`` in ``data.csv``) are ``NaN``.

    Parameters
    ----------
    name:
        Dataset name, used as part of cache keys.
    timeline:
        Strictly increasing timestamps, evenly spaced.
    sensors:
        The sensors, each with a measurement array of ``len(timeline)``.
    measurements:
        Mapping from sensor id to a 1-D float array aligned with ``timeline``.
    attributes:
        Optional explicit attribute registry (``attribute.csv``).  Defaults
        to the set of attributes present among the sensors.
    """

    def __init__(
        self,
        name: str,
        timeline: Sequence[datetime],
        sensors: Iterable[Sensor],
        measurements: Mapping[str, np.ndarray],
        attributes: Sequence[str] | None = None,
    ) -> None:
        if not name:
            raise ValueError("dataset name must be non-empty")
        self.name = name
        self.timeline: tuple[datetime, ...] = tuple(timeline)
        if len(self.timeline) < 2:
            raise ValueError("timeline must contain at least two timestamps")
        self._validate_timeline()
        self._sensors: dict[str, Sensor] = {}
        for sensor in sensors:
            if sensor.sensor_id in self._sensors:
                raise ValueError(f"duplicate sensor id: {sensor.sensor_id!r}")
            self._sensors[sensor.sensor_id] = sensor
        if not self._sensors:
            raise ValueError("dataset must contain at least one sensor")
        self._measurements: dict[str, np.ndarray] = {}
        n = len(self.timeline)
        for sensor_id in self._sensors:
            if sensor_id not in measurements:
                raise ValueError(f"missing measurements for sensor {sensor_id!r}")
            values = np.asarray(measurements[sensor_id], dtype=np.float64)
            if values.ndim != 1 or values.shape[0] != n:
                raise ValueError(
                    f"measurements for {sensor_id!r} must be 1-D of length {n}, "
                    f"got shape {values.shape}"
                )
            self._measurements[sensor_id] = values
        unknown = set(measurements) - set(self._sensors)
        if unknown:
            raise ValueError(f"measurements for unknown sensors: {sorted(unknown)}")
        present = {s.attribute for s in self._sensors.values()}
        if attributes is None:
            self.attributes: tuple[str, ...] = tuple(sorted(present))
        else:
            registry = tuple(attributes)
            missing = present - set(registry)
            if missing:
                raise ValueError(
                    f"sensors use attributes not in the registry: {sorted(missing)}"
                )
            self.attributes = registry

    def _validate_timeline(self) -> None:
        steps = {
            (b - a)
            for a, b in zip(self.timeline, self.timeline[1:])
        }
        if any(step <= timedelta(0) for step in steps):
            raise ValueError("timeline must be strictly increasing")
        if len(steps) > 1:
            raise ValueError(
                "timeline must be evenly spaced (paper: 'timestamps must be "
                f"the same time intervals'); saw intervals {sorted(steps)}"
            )

    # -- basic access ------------------------------------------------------

    @property
    def interval(self) -> timedelta:
        """The sampling interval shared by all sensors."""
        return self.timeline[1] - self.timeline[0]

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return tuple(self._sensors)

    @property
    def num_timestamps(self) -> int:
        return len(self.timeline)

    @property
    def num_records(self) -> int:
        """Total number of non-missing measurement records."""
        return int(
            sum(np.count_nonzero(~np.isnan(v)) for v in self._measurements.values())
        )

    def __len__(self) -> int:
        return len(self._sensors)

    def __iter__(self) -> Iterator[Sensor]:
        return iter(self._sensors.values())

    def __contains__(self, sensor_id: object) -> bool:
        return sensor_id in self._sensors

    def sensor(self, sensor_id: str) -> Sensor:
        try:
            return self._sensors[sensor_id]
        except KeyError:
            raise KeyError(f"unknown sensor id: {sensor_id!r}") from None

    def values(self, sensor_id: str) -> np.ndarray:
        """The measurement array for one sensor (aligned with ``timeline``)."""
        self.sensor(sensor_id)
        return self._measurements[sensor_id]

    def sensors_with_attribute(self, attribute: str) -> list[Sensor]:
        return [s for s in self._sensors.values() if s.attribute == attribute]

    # -- slicing -----------------------------------------------------------

    def slice_time(self, start: datetime, end: datetime, name: str | None = None) -> "SensorDataset":
        """A dataset restricted to timestamps in ``[start, end)``.

        Used e.g. to split the COVID-19 dataset into before/after halves
        (paper, Figure 4).
        """
        keep = [i for i, t in enumerate(self.timeline) if start <= t < end]
        if len(keep) < 2:
            raise ValueError("time slice must keep at least two timestamps")
        lo, hi = keep[0], keep[-1] + 1
        if keep != list(range(lo, hi)):  # pragma: no cover - contiguity by construction
            raise ValueError("time slice must be contiguous")
        return SensorDataset(
            name or f"{self.name}[{start:%Y-%m-%d}..{end:%Y-%m-%d}]",
            self.timeline[lo:hi],
            self._sensors.values(),
            {sid: v[lo:hi] for sid, v in self._measurements.items()},
            attributes=self.attributes,
        )

    def subset(self, sensor_ids: Iterable[str], name: str | None = None) -> "SensorDataset":
        """A dataset restricted to the given sensors."""
        ids = list(dict.fromkeys(sensor_ids))
        return SensorDataset(
            name or f"{self.name}[subset]",
            self.timeline,
            [self.sensor(sid) for sid in ids],
            {sid: self._measurements[sid] for sid in ids},
        )

    def describe(self) -> dict[str, object]:
        """Summary row matching the paper's Section 4 dataset table."""
        return {
            "name": self.name,
            "sensors": len(self),
            "records": self.num_records,
            "attributes": list(self.attributes),
            "start": self.timeline[0].isoformat(),
            "end": self.timeline[-1].isoformat(),
            "interval_seconds": self.interval.total_seconds(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SensorDataset(name={self.name!r}, sensors={len(self)}, "
            f"timestamps={self.num_timestamps}, attributes={list(self.attributes)})"
        )


class EvolvingSet:
    """The evolving timestamps of one sensor, with directions.

    ``indices`` are positions in the dataset timeline at which the sensor's
    measurement changed by at least the evolving rate; ``directions`` holds
    ``+1`` (increase) or ``-1`` (decrease) per index.  Both arrays are sorted
    by index and immutable.

    :attr:`bits` lazily builds (and caches) the int-bitmap twin of the set
    — see :mod:`repro.core.bitset` — which the search uses to turn every
    intersection into one ``&`` of two Python ints.
    """

    __slots__ = ("indices", "directions", "_bits")

    def __init__(self, indices: np.ndarray, directions: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        directions = np.asarray(directions, dtype=np.int8)
        if indices.shape != directions.shape or indices.ndim != 1:
            raise ValueError("indices and directions must be 1-D and equal length")
        if not (indices[1:] > indices[:-1]).all():
            raise ValueError("indices must be strictly increasing")
        # int8 abs(-128) wraps to -128, so only +1 and -1 pass.
        if not (np.abs(directions) == 1).all():
            raise ValueError("directions must be +1 or -1")
        indices.setflags(write=False)
        directions.setflags(write=False)
        self.indices = indices
        self.directions = directions

    @classmethod
    def empty(cls) -> "EvolvingSet":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))

    def append(self, tail: "EvolvingSet", offset: int, horizon: int) -> "EvolvingSet":
        """This set followed by ``tail`` shifted ``offset`` positions on.

        ``tail`` was validated when it was built, so only the seam is
        checked: its first shifted index must lie past this set's last.
        When this set's bitmap is built, the result's is that bitmap grown
        to ``horizon`` positions with only the tail packed in
        (:meth:`BitsetEvolvingSet.extended`), never the whole history
        re-packed.
        """
        shifted = tail.indices + offset
        if shifted.size and self.indices.size and shifted[0] <= self.indices[-1]:
            raise ValueError(
                f"appended indices start at {int(shifted[0])}, not past this "
                f"set's last index {int(self.indices[-1])}"
            )
        merged = EvolvingSet.__new__(EvolvingSet)
        merged.indices = np.concatenate([self.indices, shifted])
        merged.directions = np.concatenate([self.directions, tail.directions])
        merged.indices.setflags(write=False)
        merged.directions.setflags(write=False)
        try:
            bits = self._bits
        except AttributeError:
            return merged
        merged._bits = bits.extended(shifted, tail.directions, horizon)
        return merged

    @property
    def bits(self) -> "BitsetEvolvingSet":
        """The int-bitmap twin of this set, built lazily.

        The bitmap covers *at least* ``last index + 1`` positions (the
        streaming miner attaches incrementally-extended bitmaps that cover
        the whole timeline); the cover never changes a result because bits
        past the last index are clear either way.
        """
        try:
            return self._bits
        except AttributeError:
            from .bitset import BitsetEvolvingSet

            bits = BitsetEvolvingSet.from_arrays(self.indices, self.directions)
            self._bits = bits
            return bits

    def __reduce__(self):
        """Pickle as the bitmap alone (about timeline/8 bytes), not the
        index arrays: a spawned pool worker rebuilds the arrays from it and
        searches on the carried bitmap without re-packing."""
        return (_evolving_from_bits, (self.bits,))

    def __len__(self) -> int:
        return int(self.indices.size)

    def __bool__(self) -> bool:
        return self.indices.size > 0

    def __contains__(self, index: int) -> bool:
        pos = int(np.searchsorted(self.indices, index))
        return pos < self.indices.size and int(self.indices[pos]) == index

    def direction_at(self, index: int) -> Direction:
        pos = int(np.searchsorted(self.indices, index))
        if pos >= self.indices.size or int(self.indices[pos]) != index:
            raise KeyError(f"timestamp index {index} is not evolving")
        return int(self.directions[pos])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EvolvingSet(n={len(self)})"


def _evolving_from_bits(bits: "BitsetEvolvingSet") -> EvolvingSet:
    """The evolving set a bitmap packs, carrying that bitmap as ``.bits``
    (the unpickler of :meth:`EvolvingSet.__reduce__`)."""
    evolving = EvolvingSet(bits.to_indices(), bits.to_directions())
    evolving._bits = bits
    return evolving


#: One pattern as the CAP search emits it: ``(members, delays, attributes,
#: support, bits)``.  ``members`` is in tree order, ``delays[i]`` is
#: ``members[i]``'s delay relative to the seed (all 0 when δ = 0) and
#: ``bits`` the co-evolution bitmap, whose popcount is ``support``.  Rows
#: travel through ranking and storage as they are
#: (:class:`repro.core.result_columns.ResultTable`); a :class:`CAP` is built
#: only for a row a caller reads.
PatternRow = tuple[tuple[str, ...], tuple[int, ...], frozenset[str], int, int]


@dataclass(frozen=True)
class CAP:
    """A correlated attribute pattern.

    A CAP is a set of sensors that (1) form a connected component of the
    η-closeness graph, (2) jointly co-evolve at ``support`` ≥ ψ timestamps,
    and (3) cover between 2 and μ distinct attributes.

    ``evolving_indices`` records *where* the pattern co-evolves so the
    visualization can highlight those windows, and ``delays`` (all zero for
    simultaneous CAPs) records the per-sensor lag of the time-delayed
    extension.
    """

    sensor_ids: frozenset[str]
    attributes: frozenset[str]
    support: int
    evolving_indices: tuple[int, ...] = ()
    delays: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.sensor_ids) < 2:
            raise ValueError("a CAP must contain at least two sensors")
        if self.support < 0:
            raise ValueError("support must be non-negative")
        if self.evolving_indices and len(self.evolving_indices) != self.support:
            raise ValueError(
                "evolving_indices length must equal support when provided"
            )
        object.__setattr__(self, "delays", dict(self.delays))

    @property
    def size(self) -> int:
        return len(self.sensor_ids)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def is_delayed(self) -> bool:
        return any(d != 0 for d in self.delays.values())

    def key(self) -> tuple[str, ...]:
        """Canonical identity of the pattern: its sorted sensor ids."""
        return tuple(sorted(self.sensor_ids))

    def to_document(self) -> dict[str, object]:
        """JSON-serialisable form, the shape stored in the document store."""
        return {
            "sensors": sorted(self.sensor_ids),
            "attributes": sorted(self.attributes),
            "support": self.support,
            "evolving_indices": list(self.evolving_indices),
            "delays": {k: int(v) for k, v in sorted(self.delays.items())},
        }

    @classmethod
    def from_document(cls, doc: Mapping[str, object]) -> "CAP":
        return cls(
            sensor_ids=frozenset(doc["sensors"]),  # type: ignore[arg-type]
            attributes=frozenset(doc["attributes"]),  # type: ignore[arg-type]
            support=int(doc["support"]),  # type: ignore[arg-type]
            evolving_indices=tuple(doc.get("evolving_indices", ())),  # type: ignore[arg-type]
            delays=dict(doc.get("delays", {})),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CAP(sensors={sorted(self.sensor_ids)}, "
            f"attributes={sorted(self.attributes)}, support={self.support})"
        )
