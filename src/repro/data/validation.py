"""Validation of uploaded datasets.

The upload pipeline rejects malformed files with precise, row-addressed
errors instead of letting bad data reach the miner.  Checks mirror the
paper's format requirements:

* header rows must match the schema exactly;
* every ``(id, attribute)`` in ``data.csv`` must exist in ``location.csv``;
* every attribute must be registered in ``attribute.csv``;
* timestamps must form one evenly spaced timeline shared by all sensors;
* coordinates must be valid WGS-84.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Iterable, Sequence

from .schema import DataRow, LocationRow

__all__ = [
    "DatasetValidationError",
    "validate_locations",
    "validate_attributes",
    "validate_data_rows",
    "validate_timeline",
]


class DatasetValidationError(ValueError):
    """Raised when an uploaded dataset violates the schema.

    ``errors`` lists every problem found (the pipeline collects rather than
    stopping at the first), so one failed upload round-trip is enough to fix
    a file.
    """

    def __init__(self, errors: Sequence[str]) -> None:
        if not errors:
            raise ValueError("DatasetValidationError requires at least one error")
        self.errors = list(errors)
        preview = "; ".join(self.errors[:5])
        more = f" (+{len(self.errors) - 5} more)" if len(self.errors) > 5 else ""
        super().__init__(f"{len(self.errors)} validation error(s): {preview}{more}")


def validate_attributes(attributes: Sequence[str]) -> list[str]:
    """Problems with the ``attribute.csv`` contents."""
    errors: list[str] = []
    seen: set[str] = set()
    for i, attr in enumerate(attributes, start=1):
        if not attr or attr != attr.strip():
            errors.append(f"attribute.csv line {i}: invalid attribute name {attr!r}")
        elif attr in seen:
            errors.append(f"attribute.csv line {i}: duplicate attribute {attr!r}")
        seen.add(attr)
    if not attributes:
        errors.append("attribute.csv: no attributes declared")
    return errors


def validate_locations(
    locations: Sequence[LocationRow], attributes: Iterable[str]
) -> list[str]:
    """Problems with ``location.csv`` (ids, coordinates, attribute registry)."""
    errors: list[str] = []
    registry = set(attributes)
    seen: set[str] = set()
    for i, row in enumerate(locations, start=2):  # 1-based + header line
        if not row.sensor_id:
            errors.append(f"location.csv line {i}: empty sensor id")
        if row.sensor_id in seen:
            errors.append(f"location.csv line {i}: duplicate sensor id {row.sensor_id!r}")
        seen.add(row.sensor_id)
        if row.attribute not in registry:
            errors.append(
                f"location.csv line {i}: attribute {row.attribute!r} not in attribute.csv"
            )
        if not -90.0 <= row.lat <= 90.0:
            errors.append(f"location.csv line {i}: latitude {row.lat} out of range")
        if not -180.0 <= row.lon <= 180.0:
            errors.append(f"location.csv line {i}: longitude {row.lon} out of range")
    if not locations:
        errors.append("location.csv: no sensors declared")
    return errors


def validate_data_rows(
    rows: Sequence[DataRow], locations: Sequence[LocationRow]
) -> list[str]:
    """Problems with ``data.csv`` rows against the declared sensors."""
    errors: list[str] = []
    declared = {(r.sensor_id, r.attribute) for r in locations}
    seen_cell: set[tuple[str, datetime]] = set()
    for i, row in enumerate(rows, start=2):
        if (row.sensor_id, row.attribute) not in declared:
            errors.append(
                f"data.csv line {i}: sensor ({row.sensor_id!r}, {row.attribute!r}) "
                f"not declared in location.csv"
            )
        cell = (row.sensor_id, row.time)
        if cell in seen_cell:
            errors.append(
                f"data.csv line {i}: duplicate measurement for sensor "
                f"{row.sensor_id!r} at {row.time}"
            )
        seen_cell.add(cell)
    if not rows:
        errors.append("data.csv: no measurements")
    return errors


def validate_timeline(rows: Sequence[DataRow]) -> list[str]:
    """Check that all timestamps form one evenly spaced shared timeline.

    The paper requires "timestamps must be the same time intervals"; sensors
    may miss values (null) but may not introduce off-grid timestamps.
    """
    errors: list[str] = []
    times = sorted({row.time for row in rows})
    if len(times) < 2:
        if not times:
            return errors  # validate_data_rows already reports emptiness
        errors.append("data.csv: timeline has fewer than two distinct timestamps")
        return errors
    steps = {b - a for a, b in zip(times, times[1:])}
    if len(steps) > 1:
        listed = ", ".join(str(s) for s in sorted(steps)[:4])
        errors.append(
            f"data.csv: timestamps are not evenly spaced (intervals: {listed})"
        )
    if timedelta(0) in steps:
        errors.append("data.csv: zero-length interval between timestamps")
    # Per-sensor timestamps are a subset of the shared grid once the global
    # grid is even; sensors missing *rows* entirely (as opposed to null
    # values) get NaN there when the dataset is assembled.
    return errors
