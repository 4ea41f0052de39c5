"""Dataset ⇄ document conversion.

"Each dataset is stored in databases, and thus we can use the dataset
without re-uploading by specifying the dataset name" (Section 3.2).  These
helpers give a dataset a JSON-serialisable document form the store can hold
and the server can reload after a restart.

The only layout written is ``"encoding": 2``:

* each sensor's series is one base64 string of its little-endian
  ``float64`` bytes.  Every NaN is written as the standard quiet NaN, so a
  document's bytes depend only on which readings are missing; finite
  values, ±inf and −0.0 round-trip bit for bit;
* the timeline is ``{"start": ISO, "step_us": int, "count": int}`` when
  ``start + step·i`` rebuilds every timestamp with an equal value *and* an
  equal ``isoformat()`` (so offsets survive too); any other timeline stays
  a list of ISO strings.

It is also the only layout read: any other document raises a
``ValueError`` naming ``repro store upgrade``, which rewrites the legacy
layout (one JSON float or ``null`` per reading, one ISO string per
timestamp, no ``"encoding"``).
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Any, Mapping, Sequence


from ..core.result_columns import decode_floats, encode_floats
from ..core.types import Sensor, SensorDataset

__all__ = ["dataset_to_document", "dataset_from_document"]

ENCODING = 2

_MICROSECOND = timedelta(microseconds=1)


def dataset_to_document(dataset: SensorDataset) -> dict[str, Any]:
    """A JSON-serialisable snapshot of a full dataset."""
    return {
        "encoding": ENCODING,
        "name": dataset.name,
        "timeline": _encode_timeline(dataset.timeline),
        "attributes": list(dataset.attributes),
        "sensors": [
            {
                "id": s.sensor_id,
                "attribute": s.attribute,
                "lat": s.lat,
                "lon": s.lon,
            }
            for s in dataset
        ],
        "series": {
            sensor.sensor_id: encode_floats(dataset.values(sensor.sensor_id))
            for sensor in dataset
        },
    }


def dataset_from_document(doc: Mapping[str, Any]) -> SensorDataset:
    """Rebuild a dataset from its ``"encoding": 2`` document form."""
    if doc.get("encoding") != ENCODING:
        raise ValueError(f"dataset document encoding {doc.get('encoding')!r} is not "
                         f"{ENCODING}; run `repro store upgrade --store <path>`")
    timeline = _decode_timeline(doc["timeline"])
    measurements = {
        sensor_id: decode_floats(text) for sensor_id, text in doc["series"].items()
    }
    sensors = [
        Sensor(entry["id"], entry["attribute"], float(entry["lat"]), float(entry["lon"]))
        for entry in doc["sensors"]
    ]
    return SensorDataset(
        str(doc["name"]), timeline, sensors, measurements, attributes=doc["attributes"]
    )


def _encode_timeline(timeline: Sequence[datetime]) -> dict[str, Any] | list[str]:
    compact = {
        "start": timeline[0].isoformat(),
        "step_us": (timeline[1] - timeline[0]) // _MICROSECOND,
        "count": len(timeline),
    }
    rebuilt = _decode_timeline(compact)
    # Every rebuilt timestamp carries the start's offset; equal values with
    # equal UTC offsets also have equal isoformat(), at a fraction of its cost.
    offset = rebuilt[0].utcoffset()
    if rebuilt == list(timeline) and all(t.utcoffset() == offset for t in timeline):
        return compact
    return [t.isoformat() for t in timeline]


def _decode_timeline(timeline: Mapping[str, Any] | Sequence[str]) -> list[datetime]:
    if isinstance(timeline, Mapping):
        start = datetime.fromisoformat(timeline["start"])
        step = timeline["step_us"] * _MICROSECOND
        return [start + step * i for i in range(timeline["count"])]
    return [datetime.fromisoformat(t) for t in timeline]
