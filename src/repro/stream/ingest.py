"""Observation ingestion: validated batch append + per-dataset stream epochs.

``POST /api/v1/datasets/{name}/observations`` lands here.  A batch is a
JSON object ``{"timeline": [iso...], "series": {sensor_id: [reading...]}}``
that must *continue the dataset's sampling grid*: its first timestamp is
exactly one interval after the newest observation (the dataset's last
timestamp when nothing was appended yet), with no gaps inside the batch.
Readings are floats or ``null`` (missing).

Accepted batches are appended to the ``observations`` collection and bump
the dataset's **stream epoch** — a monotone per-dataset counter starting
at 0 (the uploaded base dataset) tracked in ``stream_epochs``.  Both
writes happen inside one :meth:`Database.exclusive` section, which on the
WAL engine fsyncs before releasing the lock — the batch is durable before
the HTTP 202 is sent.  The epoch is deliberately distinct from the
destructive re-upload *generation*: re-uploading a dataset resets its
stream (epochs, observations, events, alerts are purged; rules survive),
while appending observations never invalidates previously mined results.
"""

from __future__ import annotations

import math
import time
from datetime import datetime
from typing import Any, Mapping

from ..core.types import SensorDataset
from ..obs.metrics import get_registry

__all__ = [
    "OBSERVATIONS",
    "STREAM_EPOCHS",
    "STREAM_STATE",
    "CAP_EVENTS",
    "ALERT_RULES",
    "ALERTS",
    "STREAM_CONFIG",
    "FEED_SNAPSHOTS",
    "BatchError",
    "append_batch",
    "batch_id",
    "current_epoch",
    "purge_stream",
    "update_lag",
    "validate_batch",
]

#: The append-only observation log: one document per accepted batch.
OBSERVATIONS = "observations"
#: Per-dataset stream epoch: the append high-water mark of the *log*.
STREAM_EPOCHS = "stream_epochs"
#: Per-dataset miner high-water mark: last mined epoch + CAP snapshot.
STREAM_STATE = "stream_state"
#: The monotone CAP change feed (see :mod:`repro.stream.feed`).
CAP_EVENTS = "cap_events"
#: Registered alert rules (see :mod:`repro.stream.alerts`).
ALERT_RULES = "alert_rules"
#: Fired alerts, exactly one per (rule, event).
ALERTS = "alerts"
#: Per-dataset retention settings (see :mod:`repro.stream.retention`).
STREAM_CONFIG = "stream_config"
#: Per-dataset feed snapshots: retired CAP history folded behind the
#: retention horizon (see :mod:`repro.stream.retention`).
FEED_SNAPSHOTS = "feed_snapshots"

#: Stream collections wiped by a destructive re-upload or delete of the
#: dataset, each with the field naming the dataset.  ``alert_rules`` and
#: ``stream_config`` deliberately survive: both describe intent about a
#: *name*, not one generation's data, so a re-uploaded dataset keeps its
#: monitoring and retention configuration.
PURGED_COLLECTIONS = {
    OBSERVATIONS: "dataset",
    STREAM_EPOCHS: "name",
    STREAM_STATE: "name",
    CAP_EVENTS: "dataset",
    ALERTS: "dataset",
    FEED_SNAPSHOTS: "dataset",
}

_METRICS = get_registry()
_BATCHES = _METRICS.counter(
    "repro_stream_batches_total",
    "Observation batches accepted into the stream, per dataset.",
    labels=("dataset",),
)
_LAG = _METRICS.gauge(
    "repro_stream_lag_seconds",
    "Stream lag per dataset: newest appended observation timestamp minus "
    "the newest timestamp the resident miner has mined, in seconds.",
    labels=("dataset",),
)


class BatchError(ValueError):
    """An observation batch that fails validation (HTTP 400)."""


def batch_id(dataset: str, epoch: int) -> str:
    """The ``observations`` log address of one batch."""
    return f"{dataset}:{epoch:06d}"


def current_epoch(database: Any, name: str) -> tuple[int, str | None]:
    """(stream epoch, newest appended ISO timestamp) — (0, None) pre-append."""
    document = database.collection(STREAM_EPOCHS).find_one({"name": name})
    if document is None:
        return 0, None
    return int(document["epoch"]), document.get("last_timestamp")


def validate_batch(
    dataset: SensorDataset,
    payload: Any,
    last_timestamp: str | None,
) -> tuple[list[str], dict[str, list[float | None]]]:
    """Check one batch against the dataset schema and the sampling grid.

    Returns ``(timeline as ISO strings, series with NaN normalised to
    null)`` ready to store; raises :class:`BatchError` on any violation.
    ``last_timestamp`` is the newest already-appended observation (None
    when the log is empty — the grid then continues the base dataset).
    """
    if not isinstance(payload, Mapping):
        raise BatchError("batch body must be a JSON object")
    timeline_raw = payload.get("timeline")
    series_raw = payload.get("series")
    if not isinstance(timeline_raw, list) or not timeline_raw:
        raise BatchError("'timeline' must be a non-empty list of ISO-8601 timestamps")
    if not isinstance(series_raw, Mapping):
        raise BatchError("'series' must map sensor id -> list of readings")
    try:
        timeline = [datetime.fromisoformat(str(t)) for t in timeline_raw]
    except ValueError as exc:
        raise BatchError(f"bad timestamp in batch: {exc}") from None
    if dataset.num_timestamps < 2:
        raise BatchError(
            "dataset timeline is too short to infer the sampling interval"
        )
    interval = dataset.timeline[1] - dataset.timeline[0]
    tail = (
        datetime.fromisoformat(last_timestamp)
        if last_timestamp
        else dataset.timeline[-1]
    )
    expected = tail + interval
    for position, t in enumerate(timeline):
        if t != expected:
            raise BatchError(
                f"timestamp {t.isoformat()} breaks the sampling grid; expected "
                f"{expected.isoformat()} (batch position {position})"
            )
        expected = t + interval
    sensor_ids = {sensor.sensor_id for sensor in dataset}
    provided = set(series_raw)
    missing = sensor_ids - provided
    unknown = provided - sensor_ids
    if missing:
        raise BatchError(f"batch lacks series for sensors: {sorted(missing)}")
    if unknown:
        raise BatchError(f"batch names unknown sensors: {sorted(map(str, unknown))}")
    series: dict[str, list[float | None]] = {}
    for sid in sorted(sensor_ids):
        row = series_raw[sid]
        if not isinstance(row, list) or len(row) != len(timeline):
            raise BatchError(
                f"series for {sid!r} must be a list of {len(timeline)} readings"
            )
        values: list[float | None] = []
        for reading in row:
            if reading is None:
                values.append(None)
            elif isinstance(reading, (int, float)) and not isinstance(reading, bool):
                number = float(reading)
                values.append(None if math.isnan(number) else number)
            else:
                raise BatchError(
                    f"series for {sid!r} holds a non-numeric reading: {reading!r}"
                )
        series[sid] = values
    return [t.isoformat() for t in timeline], series


def purge_stream(database: Any, name: str) -> None:
    """Delete dataset ``name``'s documents from :data:`PURGED_COLLECTIONS`
    (its stream epoch restarts at 0)."""
    for collection, field in PURGED_COLLECTIONS.items():
        database.collection(collection).delete_many({field: name})


def append_batch(
    database: Any,
    dataset: SensorDataset,
    payload: Any,
    *,
    clock=time.time,
) -> dict[str, Any]:
    """Validate and durably append one batch; returns the accept receipt.

    The log insert and the epoch bump share one exclusive section, so the
    epoch counter can never run ahead of the log (and on the WAL engine
    both are fsynced before the section exits — durable before the 202).
    """
    with database.exclusive():
        epoch, last_timestamp = current_epoch(database, dataset.name)
        timeline, series = validate_batch(dataset, payload, last_timestamp)
        new_epoch = epoch + 1
        database.collection(OBSERVATIONS).insert_one(
            {
                "batch_id": batch_id(dataset.name, new_epoch),
                "dataset": dataset.name,
                "epoch": new_epoch,
                "timeline": timeline,
                "series": series,
                "appended_at": clock(),
            }
        )
        epochs = database.collection(STREAM_EPOCHS)
        changes = {"epoch": new_epoch, "last_timestamp": timeline[-1]}
        if epochs.update_one({"name": dataset.name}, changes) is None:
            epochs.insert_one({"name": dataset.name, **changes})
    _BATCHES.inc(dataset.name)
    update_lag(database, dataset)
    return {
        "dataset": dataset.name,
        "epoch": new_epoch,
        "observations": len(timeline),
        "last_timestamp": timeline[-1],
    }


def update_lag(database: Any, dataset: SensorDataset) -> float:
    """Recompute the ``repro_stream_lag_seconds`` gauge for one dataset.

    Lag is measured in *observation time*: the newest appended timestamp
    minus the newest timestamp the resident miner has mined (both fall
    back to the base dataset's end, so an idle, caught-up stream reads 0).
    """
    _, newest = current_epoch(database, dataset.name)
    state = database.collection(STREAM_STATE).find_one({"name": dataset.name})
    mined = (state or {}).get("last_timestamp")
    base_end = dataset.timeline[-1]
    newest_at = datetime.fromisoformat(newest) if newest else base_end
    mined_at = datetime.fromisoformat(mined) if mined else base_end
    lag = max(0.0, (newest_at - mined_at).total_seconds())
    _LAG.set(lag, dataset.name)
    return lag
