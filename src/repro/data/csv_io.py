"""Reading and writing the three-file dataset format, with chunked upload.

The paper's front end splits ``data.csv`` into 10,000-line chunks before
sending it to the server (Section 3.2).  :func:`iter_chunks` reproduces the
client side of that protocol and :class:`ChunkAssembler` the server side;
:func:`read_dataset_dir` / :func:`write_dataset_dir` are the plain local
paths used by examples and tests.

There is one ``data.csv`` parser, the assembler's columnar one: each chunk
goes straight into sensor id, attribute, time-code and value columns, with
timestamps memoized on their exact text.  ``finish`` checks the columns
with sets and integer codes and builds the dense dataset with one numpy
scatter; the row validators run only to word the errors once a check has
failed.  :func:`read_data_csv` and :func:`read_dataset_dir` use the same
parser.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.types import Sensor, SensorDataset
from .schema import (
    DATA_COLUMNS,
    DEFAULT_CHUNK_LINES,
    LOCATION_COLUMNS,
    DataRow,
    LocationRow,
    format_time,
    format_value,
    parse_time,
    parse_value,
)
from .validation import (
    DatasetValidationError,
    validate_attributes,
    validate_data_rows,
    validate_locations,
    validate_timeline,
)

__all__ = [
    "read_data_csv",
    "read_location_csv",
    "read_attribute_csv",
    "write_dataset_dir",
    "read_dataset_dir",
    "iter_chunks",
    "ChunkAssembler",
    "dataset_to_rows",
]


def read_data_csv(source: io.TextIOBase | str | Path) -> list[DataRow]:
    """Parse ``data.csv`` rows (header required)."""
    assembler = ChunkAssembler("data.csv")
    with _opened(source) as handle:
        assembler.read(handle)
    return assembler.rows()


def read_location_csv(source: io.TextIOBase | str | Path) -> list[LocationRow]:
    """Parse ``location.csv`` rows (header required)."""
    with _opened(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LOCATION_COLUMNS:
            raise DatasetValidationError(
                [f"location.csv: expected header {','.join(LOCATION_COLUMNS)}, got {header}"]
            )
        rows: list[LocationRow] = []
        errors: list[str] = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 4:
                errors.append(
                    f"location.csv line {lineno}: expected 4 fields, got {len(record)}"
                )
                continue
            sensor_id, attribute, lat_text, lon_text = record
            try:
                rows.append(LocationRow(sensor_id, attribute, float(lat_text), float(lon_text)))
            except ValueError as exc:
                errors.append(f"location.csv line {lineno}: {exc}")
        if errors:
            raise DatasetValidationError(errors)
        return rows


def read_attribute_csv(source: io.TextIOBase | str | Path) -> list[str]:
    """Parse ``attribute.csv`` (one attribute per line, no header)."""
    with _opened(source) as handle:
        return [line.strip() for line in handle if line.strip()]


class _opened:
    """Context manager accepting an open text handle, a path, or a string path."""

    def __init__(self, source: io.TextIOBase | str | Path) -> None:
        self.source = source
        self._own = not hasattr(source, "read")
        self._handle: io.TextIOBase | None = None

    def __enter__(self) -> io.TextIOBase:
        if self._own:
            self._handle = open(self.source, "r", newline="")  # type: ignore[arg-type]
            return self._handle
        return self.source  # type: ignore[return-value]

    def __exit__(self, *exc: object) -> None:
        if self._handle is not None:
            self._handle.close()


def dataset_to_rows(dataset: SensorDataset) -> tuple[list[DataRow], list[LocationRow]]:
    """Flatten a dataset back into data/location rows (round-trip support)."""
    data_rows: list[DataRow] = []
    location_rows: list[LocationRow] = []
    for sensor in dataset:
        location_rows.append(
            LocationRow(sensor.sensor_id, sensor.attribute, sensor.lat, sensor.lon)
        )
        values = dataset.values(sensor.sensor_id)
        for t, value in zip(dataset.timeline, values):
            data_rows.append(DataRow(sensor.sensor_id, sensor.attribute, t, float(value)))
    return data_rows, location_rows


def write_dataset_dir(dataset: SensorDataset, directory: str | Path) -> Path:
    """Write ``data.csv``, ``location.csv`` and ``attribute.csv`` to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data_rows, location_rows = dataset_to_rows(dataset)
    with open(directory / "data.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DATA_COLUMNS)
        for row in data_rows:
            writer.writerow(
                [row.sensor_id, row.attribute, format_time(row.time), format_value(row.value)]
            )
    with open(directory / "location.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LOCATION_COLUMNS)
        for row in location_rows:
            writer.writerow([row.sensor_id, row.attribute, repr(row.lat), repr(row.lon)])
    with open(directory / "attribute.csv", "w", newline="") as handle:
        for attribute in dataset.attributes:
            handle.write(attribute + "\n")
    return directory


def read_dataset_dir(directory: str | Path, name: str | None = None) -> SensorDataset:
    """Load a dataset directory written by :func:`write_dataset_dir`.

    Parses and validates exactly like an upload: one :class:`ChunkAssembler`
    reads the whole ``data.csv``.
    """
    directory = Path(directory)
    attributes = read_attribute_csv(directory / "attribute.csv")
    locations = read_location_csv(directory / "location.csv")
    assembler = ChunkAssembler(name or directory.name)
    with _opened(directory / "data.csv") as handle:
        assembler.read(handle)
    return assembler.finish(locations, attributes)


# -- chunked upload protocol (Section 3.2) ----------------------------------


def iter_chunks(
    rows: Sequence[DataRow], chunk_lines: int = DEFAULT_CHUNK_LINES
) -> Iterator[str]:
    """Serialise ``data.csv`` rows into ≤ ``chunk_lines``-line CSV chunks.

    Every chunk repeats the header so each is independently parseable — the
    shape a browser client would POST to the upload endpoint.
    """
    if chunk_lines < 1:
        raise ValueError(f"chunk_lines must be >= 1, got {chunk_lines}")
    for start in range(0, len(rows), chunk_lines):
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(DATA_COLUMNS)
        for row in rows[start : start + chunk_lines]:
            writer.writerow(
                [row.sensor_id, row.attribute, format_time(row.time), format_value(row.value)]
            )
        yield buffer.getvalue()
    if not rows:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(DATA_COLUMNS)
        yield buffer.getvalue()


class ChunkAssembler:
    """Server-side accumulator for the chunked upload protocol.

    Feed chunks with :meth:`add_chunk`; call :meth:`finish` with the
    location and attribute files to validate and assemble the dataset.

    Rows go straight into four columns (sensor id, attribute, time code,
    value); no per-row object is built.  Timestamp texts are memoized on
    their exact text, so ``parse_time`` runs once per distinct text and a
    text it rejects is rejected (with the same message) every time.
    """

    def __init__(self, dataset_name: str) -> None:
        if not dataset_name:
            raise ValueError("dataset_name must be non-empty")
        self.dataset_name = dataset_name
        self._ids: list[str] = []
        self._attributes: list[str] = []
        self._times: list[int] = []  # codes into self._instants
        self._values: list[float] = []
        self._time_memo: dict[str, int] = {}  # exact text -> code
        self._codes: dict[datetime, int] = {}  # instant -> code
        self._instants: list[datetime] = []  # code -> instant
        self._chunks = 0
        self._finished = False

    @property
    def chunks_received(self) -> int:
        return self._chunks

    @property
    def rows_received(self) -> int:
        return len(self._values)

    def add_chunk(self, chunk_text: str) -> int:
        """Parse one chunk; returns the number of data rows it contained."""
        rows = self.read(io.StringIO(chunk_text))
        self._chunks += 1
        return rows

    def rows(self) -> list[DataRow]:
        """Every accepted row, in arrival order."""
        instants = self._instants
        return [
            DataRow(sensor_id, attribute, instants[code], value)
            for sensor_id, attribute, code, value in zip(
                self._ids, self._attributes, self._times, self._values
            )
        ]

    def finish(
        self, locations: Sequence[LocationRow], attributes: Sequence[str]
    ) -> SensorDataset:
        """Validate everything received and build the dataset."""
        if self._finished:
            raise RuntimeError("upload already finished")
        errors = validate_attributes(attributes) + validate_locations(locations, attributes)
        grid = self._grid(locations)
        if grid is None:
            # A column check failed: the row validators word the errors.
            rows = self.rows()
            errors += validate_data_rows(rows, locations) + validate_timeline(rows)
        if errors:
            raise DatasetValidationError(errors)
        self._finished = True
        sensor_index, positions, timeline = grid
        matrix = np.full((len(locations), len(timeline)), np.nan)
        matrix[sensor_index, positions] = self._values
        return SensorDataset(
            self.dataset_name,
            timeline,
            [Sensor(loc.sensor_id, loc.attribute, loc.lat, loc.lon) for loc in locations],
            {loc.sensor_id: matrix[i] for i, loc in enumerate(locations)},
            attributes=attributes,
        )

    def read(self, handle: Iterable[str]) -> int:
        """Append the rows of one headed ``data.csv`` text; returns their count.

        All rows or none: any bad line raises, listing every bad line.
        """
        if self._finished:
            raise RuntimeError("upload already finished")
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != DATA_COLUMNS:
            raise DatasetValidationError(
                [f"data.csv: expected header {','.join(DATA_COLUMNS)}, got {header}"]
            )
        ids: list[str] = []
        attributes: list[str] = []
        times: list[int] = []
        values: list[float] = []
        errors: list[str] = []
        memo = self._time_memo
        for lineno, record in enumerate(reader, start=2):
            if len(record) != 4:
                if record:
                    errors.append(
                        f"data.csv line {lineno}: expected 4 fields, got {len(record)}"
                    )
                continue
            sensor_id, attribute, time_text, value_text = record
            try:
                code = memo.get(time_text)
                if code is None:
                    code = self._time_code(time_text)
                try:
                    value = float(value_text)
                except ValueError:  # the null token, or parse_value's error
                    value = parse_value(value_text)
            except ValueError as exc:
                errors.append(f"data.csv line {lineno}: {exc}")
                continue
            ids.append(sensor_id)
            attributes.append(attribute)
            times.append(code)
            values.append(value)
        if errors:
            raise DatasetValidationError(errors)
        self._ids += ids
        self._attributes += attributes
        self._times += times
        self._values += values
        return len(values)

    def _time_code(self, text: str) -> int:
        """Memo miss: parse ``text`` and code its instant."""
        when = parse_time(text)
        code = self._codes.get(when)
        if code is None:
            code = self._codes[when] = len(self._instants)
            self._instants.append(when)
        self._time_memo[text] = code
        return code

    def _grid(
        self, locations: Sequence[LocationRow]
    ) -> tuple[np.ndarray, np.ndarray, list[datetime]] | None:
        """Each row's (location index, timeline position) and the timeline.

        ``None`` unless the columns pass every check the row validators
        make: some rows, every ``(id, attribute)`` declared, no two rows
        on one ``(sensor, time)`` cell, and one even step between at least
        two distinct times.
        """
        count = len(self._values)
        declared = {(loc.sensor_id, loc.attribute) for loc in locations}
        if not count or not declared.issuperset(zip(self._ids, self._attributes)):
            return None
        index = {loc.sensor_id: i for i, loc in enumerate(locations)}
        sensors = np.fromiter(map(index.__getitem__, self._ids), dtype=np.intp, count=count)
        codes = np.array(self._times, dtype=np.intp)
        width = len(self._instants)
        cells = np.sort(sensors * width + codes)
        if (cells[1:] == cells[:-1]).any():
            return None
        present = np.zeros(width, dtype=bool)
        present[codes] = True
        order = sorted(np.flatnonzero(present).tolist(), key=self._instants.__getitem__)
        timeline = [self._instants[code] for code in order]
        if len(timeline) < 2 or len({b - a for a, b in zip(timeline, timeline[1:])}) != 1:
            return None
        position = np.empty(width, dtype=np.intp)
        position[order] = np.arange(len(order))
        return sensors, position[codes], timeline
