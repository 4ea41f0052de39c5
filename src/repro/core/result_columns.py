"""A mining result's CAPs as columns: the stored layout and the read table.

The result cache stores every mining result (Section 3.3), and a user then
reads it a few CAPs at a time: a page, a sensor's patterns on a map click.
This module holds a result's CAPs the same way in both places — as columns:

* :class:`ResultTable` is the in-memory result.  It is built from the
  search's ranked pattern rows (:meth:`ResultTable.from_rows`: sorted
  names, codes and supports, plus each pattern's bitmap), from a stored
  document (:meth:`ResultTable.from_columns`: each column decoded on its
  first use) or from a list of :class:`~repro.core.types.CAP` objects
  (:meth:`ResultTable.from_caps`: the naive miner, tests).  It is a
  read-only ``Sequence[CAP]`` that builds a ``CAP`` only for a row that is
  read; :meth:`ResultTable.documents` gives the CAP documents of any rows
  without building one, and :meth:`ResultTable.sensor_rows` serves a
  sensor's rows from a lazy inverted index.
* :meth:`ResultTable.to_columns` (wrapped with the result's metadata by
  :func:`result_to_columns`) writes the stored ``"encoding": 2`` layout.

The stored layout:

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
  indexed CAPs' ``evolving_indices``, ``support`` of them per indexed CAP
  (from pattern rows: one :func:`~repro.core.bitset.bitmap_positions`
  unpack of every bitmap, in stored order);
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

Every row's document equals the ``to_document()`` of the CAP it stands
for, whichever way the table was built.  Only this layout is read: any
other document (the legacy ``to_document()`` CAP list has no
``"encoding"``) raises a ``ValueError`` naming ``repro store upgrade``,
which rewrites it.
"""

from __future__ import annotations

import base64
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bitset import bitmap_positions
from .types import CAP, PatternRow

if TYPE_CHECKING:  # pragma: no cover - the miner imports this module
    from .miner import MiningResult

__all__ = [
    "ResultTable",
    "decode_floats",
    "encode_floats",
    "pack_column",
    "result_to_columns",
    "unpack_column",
]

ENCODING = 2

_UNSIGNED = ("<u1", "<u2", "<u4")
_SIGNED = ("<i1", "<i2", "<i4", "<i8")

#: The CAP columns every stored result has, in stored order.
_COLUMNS = ("sensor_counts", "sensor_codes", "attribute_counts",
            "attribute_codes", "supports", "indexed", "indices")
#: The columns a result with delays adds.
_DELAY_COLUMNS = ("delay_counts", "delay_codes", "delay_values")


def result_to_columns(result: "MiningResult") -> dict[str, Any]:
    """The stored form of ``result``: plain metadata plus the CAP columns."""
    return {
        "encoding": ENCODING,
        "dataset": result.dataset_name,
        "parameters": result.parameters.to_document(),
        "elapsed_seconds": result.elapsed_seconds,
        **result.caps.to_columns(),
    }


def require_encoding(doc: Mapping[str, Any]) -> None:
    """Raise unless ``doc`` is a result in this layout."""
    if doc.get("encoding") != ENCODING:
        raise ValueError(f"result document encoding {doc.get('encoding')!r} is not "
                         f"{ENCODING}; run `repro store upgrade --store <path>`")


class ResultTable(Sequence[CAP]):
    """A result's CAPs as decoded columns, read a row at a time.

    Row ``i`` is the ``i``-th CAP, strongest support first.  Columns hold
    Python ints except ``indices``, a numpy array; a column missing from
    ``columns`` is unpacked from ``source`` (a stored document) on first
    use, and ``indices`` from ``bits`` (one bitmap per row) when given.
    The table never changes once built, so threads may share it: a lazily
    built column or index is at worst built twice.
    """

    def __init__(
        self,
        num_rows: int,
        sensors: list[str],
        attributes: list[str],
        columns: dict[str, Any],
        *,
        delayed: bool,
        source: Mapping[str, Any] | None = None,
        bits: list[int] | None = None,
    ) -> None:
        self.sensors = sensors
        self.attributes = attributes
        self.delayed = delayed
        self._num_rows = num_rows
        self._columns = columns
        self._source = source
        self._bits = bits
        self._starts: dict[str, list[int]] = {}
        self._sensor_rows: dict[str, list[int]] | None = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[PatternRow], delayed: bool) -> "ResultTable":
        """The table of ranked search rows (:func:`repro.core.search.search_all`).

        Each row's names are sorted here and its delays anchored so the
        smallest is 0 (shifting every delay together is the same
        pattern); ``delayed`` (δ > 0) gives every row its delays, as
        :class:`~repro.core.types.CAP` ``delays``, and otherwise none.
        """
        sensor_names: list[str] = []
        sensor_counts: list[int] = []
        attribute_names: list[str] = []
        attribute_counts: list[int] = []
        sorted_attributes: dict[frozenset[str], list[str]] = {}
        delay_values: list[int] = []
        for members, delays, attrs, _support, _bits in rows:
            key = sorted(members)
            sensor_names += key
            sensor_counts.append(len(key))
            names = sorted_attributes.get(attrs)
            if names is None:
                names = sorted_attributes[attrs] = sorted(attrs)
            attribute_names += names
            attribute_counts.append(len(names))
            if delayed:
                low = min(delays)
                by_member = dict(zip(members, delays))
                delay_values += [by_member[sid] - low for sid in key]
        sensors = list(dict.fromkeys(sensor_names))
        attributes = list(dict.fromkeys(attribute_names))
        sensor_codes = _codes(sensor_names, sensors)
        supports = [row[3] for row in rows]
        columns: dict[str, Any] = {
            "sensor_counts": sensor_counts,
            "sensor_codes": sensor_codes,
            "attribute_counts": attribute_counts,
            "attribute_codes": _codes(attribute_names, attributes),
            "supports": supports,
            # A row's bitmap is empty exactly when its support is 0.
            "indexed": [1 if support else 0 for support in supports],
        }
        delayed = delayed and bool(rows)
        if delayed:
            columns.update(delay_counts=sensor_counts, delay_codes=sensor_codes,
                           delay_values=delay_values)
        return cls(len(rows), sensors, attributes, columns, delayed=delayed,
                   bits=[row[4] for row in rows])

    @classmethod
    def from_caps(cls, caps: Iterable[CAP]) -> "ResultTable":
        """The table of a CAP list, in list order."""
        caps = list(caps)
        sensor_names = [name for cap in caps for name in sorted(cap.sensor_ids)]
        attribute_names = [name for cap in caps for name in sorted(cap.attributes)]
        indices: list[int] = []
        for cap in caps:
            indices += cap.evolving_indices
        delays = [sorted(cap.delays.items()) for cap in caps]
        delay_names = [name for items in delays for name, _ in items]
        sensors = list(dict.fromkeys(sensor_names + delay_names))
        attributes = list(dict.fromkeys(attribute_names))
        columns: dict[str, Any] = {
            "sensor_counts": [len(cap.sensor_ids) for cap in caps],
            "sensor_codes": _codes(sensor_names, sensors),
            "attribute_counts": [len(cap.attributes) for cap in caps],
            "attribute_codes": _codes(attribute_names, attributes),
            "supports": [cap.support for cap in caps],
            "indexed": [1 if cap.evolving_indices else 0 for cap in caps],
            "indices": np.fromiter(indices, dtype=np.int64, count=len(indices)),
        }
        if delay_names:
            columns.update(
                delay_counts=[len(items) for items in delays],
                delay_codes=_codes(delay_names, sensors),
                delay_values=[delay for items in delays for _, delay in items],
            )
        return cls(len(caps), sensors, attributes, columns, delayed=bool(delay_names))

    @classmethod
    def from_columns(cls, doc: Mapping[str, Any]) -> "ResultTable":
        """The table of a stored result; each column is decoded on first use."""
        require_encoding(doc)
        return cls(int(doc["num_caps"]), list(doc["sensors"]), list(doc["attributes"]),
                   {}, delayed="delay_counts" in doc, source=doc)

    # -- the stored layout -------------------------------------------------------

    def to_columns(self) -> dict[str, Any]:
        """``num_caps``, the name tables and the packed CAP columns, in
        stored order (:func:`result_to_columns` adds the metadata)."""
        document: dict[str, Any] = {
            "num_caps": self._num_rows,
            "sensors": list(self.sensors),
            "attributes": list(self.attributes),
        }
        for name in _COLUMNS + (_DELAY_COLUMNS if self.delayed else ()):
            widths = _SIGNED if name == "delay_values" else _UNSIGNED
            document[name] = pack_column(self._column(name), widths)
        return document

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_rows

    def __getitem__(self, index):  # type: ignore[override]
        rows = range(self._num_rows)[index]
        if isinstance(rows, range):
            return self.caps(rows)
        return self.caps((rows,))[0]

    def __iter__(self) -> Iterator[CAP]:
        return iter(self.caps())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultTable(rows={self._num_rows})"

    def documents(self, rows: Iterable[int] | None = None) -> list[dict[str, Any]]:
        """The CAP documents (``CAP.to_document()``) of ``rows``, all by default."""
        return [
            {"sensors": sensors, "attributes": attributes, "support": support,
             "evolving_indices": indices, "delays": delays}
            for sensors, attributes, support, indices, delays in self._rows(rows)
        ]

    def caps(self, rows: Iterable[int] | None = None) -> list[CAP]:
        """The :class:`~repro.core.types.CAP` objects of ``rows``, all by default."""
        return [
            CAP(frozenset(sensors), frozenset(attributes), support, tuple(indices), delays)
            for sensors, attributes, support, indices, delays in self._rows(rows)
        ]

    def sensors_of(self, row: int) -> list[str]:
        """The sorted sensor ids of one row."""
        return self._names(row, "sensor_counts", "sensor_codes", self.sensors)

    def attributes_of(self, row: int) -> list[str]:
        """The sorted attribute names of one row."""
        return self._names(row, "attribute_counts", "attribute_codes", self.attributes)

    def sensor_rows(self, sensor_id: str) -> list[int]:
        """The rows whose pattern contains ``sensor_id``, in row order.

        Served from an inverted index built on first use from the sensor
        columns alone, so a map click costs O(its rows), not O(all rows).
        """
        if self._sensor_rows is None:
            counts = self._column("sensor_counts")
            codes = self._column("sensor_codes")
            by_code: dict[int, list[int]] = {}
            row_of_code = [row for row, count in enumerate(counts) for _ in range(count)]
            for code, row in zip(codes, row_of_code):
                by_code.setdefault(code, []).append(row)
            self._sensor_rows = {self.sensors[code]: rows for code, rows in by_code.items()}
        return self._sensor_rows.get(sensor_id, [])

    # -- internals ---------------------------------------------------------------

    def _column(self, name: str) -> Any:
        column = self._columns.get(name)
        if column is None:
            if name == "indices":
                column = (
                    bitmap_positions(self._bits) if self._bits is not None
                    else _unpack_array(self._source["indices"])  # type: ignore[index]
                )
            else:
                column = unpack_column(self._source[name])  # type: ignore[index]
            self._columns[name] = column
        return column

    def _row_starts(self, counts_name: str) -> list[int]:
        """Where each row's run starts in the column ``counts_name`` counts;
        one more entry closes the last run."""
        starts = self._starts.get(counts_name)
        if starts is None:
            if counts_name == "indices":  # ``support`` indices per indexed row
                counts: Iterable[int] = map(
                    lambda support, flag: support if flag else 0,
                    self._column("supports"), self._column("indexed"),
                )
            else:
                counts = self._column(counts_name)
            starts = self._starts[counts_name] = list(accumulate(counts, initial=0))
        return starts

    def _names(self, row: int, counts_name: str, codes_name: str, table: list[str]) -> list[str]:
        starts = self._row_starts(counts_name)
        codes = self._column(codes_name)
        return [table[code] for code in codes[starts[row]:starts[row + 1]]]

    def _rows(
        self, rows: Iterable[int] | None
    ) -> Iterator[tuple[list[str], list[str], int, list[int], dict[str, int]]]:
        """Each row's fields: sensors, attributes, support, indices, delays."""
        if rows is None:
            rows = range(self._num_rows)
        sensors, attributes = self.sensors, self.attributes
        sensor_codes = self._column("sensor_codes")
        sensor_starts = self._row_starts("sensor_counts")
        attribute_codes = self._column("attribute_codes")
        attribute_starts = self._row_starts("attribute_counts")
        supports = self._column("supports")
        indices = self._column("indices")
        index_starts = self._row_starts("indices")
        if self.delayed:
            delay_codes = self._column("delay_codes")
            delay_values = self._column("delay_values")
            delay_starts = self._row_starts("delay_counts")
        for row in rows:
            if self.delayed:
                lo, hi = delay_starts[row], delay_starts[row + 1]
                delays = {sensors[code]: value for code, value
                          in zip(delay_codes[lo:hi], delay_values[lo:hi])}
            else:
                delays = {}
            yield (
                [sensors[code] for code in
                 sensor_codes[sensor_starts[row]:sensor_starts[row + 1]]],
                [attributes[code] for code in
                 attribute_codes[attribute_starts[row]:attribute_starts[row + 1]]],
                supports[row],
                indices[index_starts[row]:index_starts[row + 1]].tolist(),
                delays,
            )


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
    return _unpack_array(column).tolist()


def _unpack_array(column: Mapping[str, str]) -> np.ndarray:
    """A :func:`pack_column` column as a read-only array over its bytes."""
    data = base64.b64decode(column["data"])
    return np.frombuffer(data, dtype=np.dtype(column["dtype"]))


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
