"""Mining result ⇄ the columnar stored layout (``"encoding": 2``).

The result cache stores every mining result (Section 3.3).  The CAP list of
:meth:`MiningResult.to_document` is one dict per CAP holding JSON lists;
building, freezing and serializing that tree cost a cold mine about as much
as the mining did.  This layout stores the same CAPs as a handful of base64
columns instead:

* ``dataset``, ``parameters``, ``elapsed_seconds`` and ``num_caps`` are plain
  fields, so metadata reads never touch a column;
* ``sensors`` / ``attributes`` are tables of the names the CAPs use, in
  first-use order;
* ``sensor_counts`` + ``sensor_codes`` and ``attribute_counts`` +
  ``attribute_codes`` list each CAP's names in ``to_document()`` (sorted)
  order as table positions, so a document's bytes never depend on set
  iteration order;
* ``supports``; ``indexed`` is 1 where a CAP carries ``evolving_indices``
  (a CAP may have a support but no indices); ``indices`` concatenates the
  indexed CAPs' ``evolving_indices``, ``support`` of them per indexed CAP;
* only when some CAP has delays: ``delay_counts``, ``delay_codes`` (keys in
  the sorted order ``to_document()`` writes them, as sensor-table
  positions) and signed ``delay_values``.

A column is ``{"dtype", "data"}``: base64 of little-endian integers in the
narrowest of ``<u1``/``<u2``/``<u4`` that holds its values (delays are
signed: ``<i1`` to ``<i8``).  So the index column is ``<u2`` for a horizon
of 256 to 65,536 steps and ``<u4`` past that.  Wider unsigned words are
never needed, and the CI lint "One bitmap representation" forbids numpy's
64-bit unsigned dtype name under ``src/``.

The column helpers are shared: :func:`pack_column`/:func:`unpack_column`
also write the stream miner's checkpoint
(:func:`repro.core.streaming.pack_checkpoint`), and
:func:`encode_floats`/:func:`decode_floats` its last values and every
stored dataset series (:mod:`repro.data.documents`).

Decoding rebuilds CAPs whose ``to_document()`` equals the original's.  It
reads this layout only: any other document (the legacy ``to_document()``
CAP list has no ``"encoding"``) raises a ``ValueError`` naming
``repro store upgrade``, which rewrites it.
"""

from __future__ import annotations

import base64
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .types import CAP

if TYPE_CHECKING:  # pragma: no cover - the miner imports this module
    from .miner import MiningResult

__all__ = [
    "caps_from_columns",
    "decode_floats",
    "encode_floats",
    "pack_column",
    "result_to_columns",
    "unpack_column",
]

ENCODING = 2

_UNSIGNED = ("<u1", "<u2", "<u4")
_SIGNED = ("<i1", "<i2", "<i4", "<i8")


def result_to_columns(result: "MiningResult") -> dict[str, Any]:
    """The stored form of ``result``: plain metadata plus the CAP columns."""
    caps = result.caps
    sensor_names = [name for cap in caps for name in sorted(cap.sensor_ids)]
    attribute_names = [name for cap in caps for name in sorted(cap.attributes)]
    indices: list[int] = []
    for cap in caps:
        indices += cap.evolving_indices
    delays = [sorted(cap.delays.items()) for cap in caps]
    delay_names = [name for items in delays for name, _ in items]
    sensors = list(dict.fromkeys(sensor_names + delay_names))
    attributes = list(dict.fromkeys(attribute_names))
    document: dict[str, Any] = {
        "encoding": ENCODING,
        "dataset": result.dataset_name,
        "parameters": result.parameters.to_document(),
        "elapsed_seconds": result.elapsed_seconds,
        "num_caps": len(caps),
        "sensors": sensors,
        "attributes": attributes,
        "sensor_counts": pack_column([len(cap.sensor_ids) for cap in caps]),
        "sensor_codes": pack_column(_codes(sensor_names, sensors)),
        "attribute_counts": pack_column([len(cap.attributes) for cap in caps]),
        "attribute_codes": pack_column(_codes(attribute_names, attributes)),
        "supports": pack_column([cap.support for cap in caps]),
        "indexed": pack_column([1 if cap.evolving_indices else 0 for cap in caps]),
        "indices": pack_column(indices),
    }
    if delay_names:
        document["delay_counts"] = pack_column([len(items) for items in delays])
        document["delay_codes"] = pack_column(_codes(delay_names, sensors))
        document["delay_values"] = pack_column(
            [delay for items in delays for _, delay in items], _SIGNED
        )
    return document


def require_encoding(doc: Mapping[str, Any]) -> None:
    """Raise unless ``doc`` is a result in this layout."""
    if doc.get("encoding") != ENCODING:
        raise ValueError(f"result document encoding {doc.get('encoding')!r} is not "
                         f"{ENCODING}; run `repro store upgrade --store <path>`")


def caps_from_columns(doc: Mapping[str, Any]) -> list[CAP]:
    """The CAPs of a stored columnar result, in stored order."""
    require_encoding(doc)
    sensors, attributes = doc["sensors"], doc["attributes"]
    sensor_sets = _groups(
        [sensors[code] for code in unpack_column(doc["sensor_codes"])],
        unpack_column(doc["sensor_counts"]),
        frozenset,
    )
    attribute_sets = _groups(
        [attributes[code] for code in unpack_column(doc["attribute_codes"])],
        unpack_column(doc["attribute_counts"]),
        frozenset,
    )
    supports = unpack_column(doc["supports"])
    index_counts = [s if flag else 0 for s, flag in zip(supports, unpack_column(doc["indexed"]))]
    indices = _groups(unpack_column(doc["indices"]), index_counts, tuple)
    if "delay_counts" in doc:
        items = zip(
            [sensors[code] for code in unpack_column(doc["delay_codes"])],
            unpack_column(doc["delay_values"]),
        )
        delays: Iterable[dict[str, int]] = _groups(
            list(items), unpack_column(doc["delay_counts"]), dict
        )
    else:
        delays = repeat({})  # CAP copies its delays, so one empty dict serves all
    return list(map(CAP, sensor_sets, attribute_sets, supports, indices, delays))


def _groups(items: list, counts: list[int], kind: Callable[[list], Any]) -> list:
    """``items`` cut into consecutive runs of ``counts`` lengths, each as ``kind``."""
    ends = list(accumulate(counts))
    return [kind(items[start:end]) for start, end in zip(chain((0,), ends), ends)]


def _codes(names: list[str], table: list[str]) -> list[int]:
    position = {name: code for code, name in enumerate(table)}
    return list(map(position.__getitem__, names))


def pack_column(values: Sequence[int], widths: Sequence[str] = _UNSIGNED) -> dict[str, str]:
    """``values`` as base64 in the narrowest of ``widths`` that holds them."""
    if isinstance(values, np.ndarray):
        column = values.astype(np.int64, copy=False)
    else:  # fromiter beats asarray on a list of ints
        column = np.fromiter(values, dtype=np.int64, count=len(values))
    lo, hi = (int(column.min()), int(column.max())) if len(column) else (0, 0)
    for dtype in widths:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            data = column.astype(dtype).tobytes()
            return {"dtype": dtype, "data": base64.b64encode(data).decode("ascii")}
    raise ValueError(f"values in [{lo}, {hi}] do not fit a {widths[-1]} column")


def unpack_column(column: Mapping[str, str]) -> list[int]:
    """The integers of a :func:`pack_column` column."""
    data = base64.b64decode(column["data"])
    return np.frombuffer(data, dtype=np.dtype(column["dtype"])).tolist()


#: The standard quiet NaN (0x7ff8000000000000) every NaN is written as.
_QUIET_NAN = np.array([0x7FF8_0000_0000_0000], dtype="<u8").view("<f8")[0]


def encode_floats(values: np.ndarray) -> str:
    """Base64 of ``values`` as little-endian ``float64``.

    Every NaN is written as the standard quiet NaN, so the bytes depend only
    on which values are missing; finite values, ±inf and −0.0 round-trip
    bit for bit.
    """
    column = np.ascontiguousarray(values, dtype="<f8")
    missing = np.isnan(column)
    if missing.any():
        column = column.copy()
        column[missing] = _QUIET_NAN
    return base64.b64encode(column.tobytes()).decode("ascii")


def decode_floats(text: str) -> np.ndarray:
    """The writable ``float64`` array :func:`encode_floats` wrote."""
    # astype copies: the decoded array is writable and owns its memory.
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64)
