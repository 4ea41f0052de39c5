"""``repro store upgrade``: the one reader of older store layouts (nothing
the server imports imports it).  Under the store's flock, v2 segments
(``<name>.seg``), v1 logs (``<name>.log``, CRC-32C; a segment beside its
log wins) or, with no marker at all, a ``repro-store-v1`` snapshot become
the v3 log, swapped in before the ``FORMAT`` flip; then the old files go and
the snapshot becomes ``<path>.pre-wal`` (``MIGRATED`` marks one awaiting
that), so a re-run after a kill at any ``mid-format-migration`` point
converges.  Then one section re-encodes encoding-less datasets and
results, drops the ``mode``/``horizon`` of older planners' jobs and the
``spans`` collection, spills shard output kept inline on a job into
``shard_outputs``, packs list-form stream watermarks and cuts full alert
documents down to references.  A current store is left byte for byte.
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from datetime import datetime
from pathlib import Path
from typing import Any, Mapping
from urllib.parse import unquote

import numpy as np

from ..cache.cache import ResultCache
from ..core.miner import MiningResult
from ..core.parameters import MiningParameters
from ..core.streaming import pack_checkpoint
from ..core.types import CAP, EvolvingSet, Sensor, SensorDataset
from ..data.documents import dataset_to_document
from ..jobs.distributed import spill_output
from ..stream.alerts import STORED_FIELDS, stored_alert
from ..stream.ingest import ALERTS, STREAM_STATE
from . import wal
from .collection import Collection
from .database import (
    Database, _encode_state, _fsync_dir, _quarantine_tail, _swap_in, store_lock,
)

__all__ = ["FORMAT_V1", "FORMAT_V2", "SEGMENT_SUFFIXES", "format_checksum", "upgrade"]

_log = logging.getLogger("repro.store")

FORMAT_V1 = "repro-store-wal-v1"
FORMAT_V2 = "repro-store-wal-v2"
#: Per-collection log suffix of the formats before v3, oldest first.
SEGMENT_SUFFIXES = {FORMAT_V1: ".log", FORMAT_V2: ".seg"}
_SNAPSHOT_FORMAT = "repro-store-v1"
_MIGRATED_MARKER = "MIGRATED"
#: Job fields older registries wrote: planners' ``mode``/``horizon``, and a
#: pre-spill shard's inline ``output`` (spilled to ``shard_outputs`` first).
_RETIRED_JOB_FIELDS = ("mode", "horizon", "output")
_LEGACY_SPANS = "spans"

#: A v1/v2 record (``{"op": ..., ...}``) as a v3 op; ``clear`` (which no v3
#: build writes) deletes every document, keeping its ids burned.
_V2_OPS = {
    "put": lambda record, collection: record["doc"],
    "del": lambda record, collection: ["del", record.get("ids", [])],
    "clear": lambda record, collection: ["del", [doc["_id"] for doc in collection.find()]],
    "index": lambda record, collection: ["index", record["path"], record["kind"]],
    "next": lambda record, collection: ["next", record["value"]],
}


def format_checksum(fmt: str) -> wal.Checksum:
    """Record checksum of a format, resolved per call so a wrapper
    installed on :func:`wal.crc32c` by name (a tracer) sees the v1 reads."""
    if fmt in (FORMAT_V2, wal.FORMAT_V3):
        return zlib.crc32
    if fmt == FORMAT_V1:
        return wal.crc32c
    raise wal.UnknownFormatError(f"unrecognised WAL format {fmt!r}")


def upgrade(path: str | Path) -> dict[str, Any]:
    """Rewrite the store at ``path`` as the current layout; returns the
    format found (``None`` for a bare snapshot) and what changed."""
    path = Path(path)
    root = path.with_name(path.name + ".wal")
    if not root.is_dir() and not path.exists():
        raise FileNotFoundError(f"no store at {path}")
    root.mkdir(exist_ok=True)
    with store_lock(root):
        found = wal.read_format(root)
        found = FORMAT_V1 if found == "" else found  # v1 wrote the marker in place
        if found not in (None, FORMAT_V1, FORMAT_V2, wal.FORMAT_V3):
            raise wal.UnknownFormatError(f"unrecognised WAL format in {root}: {found!r}")
        sources = [
            (source, fmt)
            for fmt in (FORMAT_V2, FORMAT_V1)
            for source in sorted(root.glob("*" + SEGMENT_SUFFIXES[fmt]))
        ]
        if found != wal.FORMAT_V3:
            _rewrite_layout(path, root, found, sources)
        for source, _ in sources:
            wal.maybe_fault("mid-format-migration")
            source.unlink()
        archive = (root / _MIGRATED_MARKER).exists()
        if archive and path.exists():
            os.replace(path, path.with_name(path.name + ".pre-wal"))
        if archive or sources:
            (root / _MIGRATED_MARKER).unlink(missing_ok=True)
            _fsync_dir(root)
            _fsync_dir(path.parent)
    with Database(path) as database, database.exclusive():
        return {"format": found, **_rewrite_documents(database)}


def _read_segment(path: Path, fmt: str, name: str) -> Collection:
    """One v1 log or v2 segment replayed into a collection."""
    data = path.read_bytes()
    records, valid_end, torn = wal.decode_records(data, checksum=format_checksum(fmt))
    if torn:
        _quarantine_tail(path, data[valid_end:], valid_end)
        os.truncate(path, valid_end)
    collection = Collection(name)
    for record in records:
        if record.get("op") in _V2_OPS:  # an op this code does not know is skipped
            collection.apply_wal_record(_V2_OPS[record["op"]](record, collection))
    return collection


def _read_snapshot(path: Path) -> list[Collection]:
    """A snapshot's collections; one that fails to parse is quarantined, an
    unknown format string (maybe a newer version's) raises."""
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(snapshot, dict):
            raise ValueError("not an object")
    except (ValueError, UnicodeDecodeError):
        quarantined = path.with_name(f"{path.name}.corrupt-{int(time.time() * 1000)}")
        os.replace(path, quarantined)
        _log.warning("store: snapshot %s failed to parse; quarantined to %s", path, quarantined)
        return []
    if snapshot.get("format") != _SNAPSHOT_FORMAT:
        raise ValueError(f"unrecognised snapshot format in {path}: {snapshot.get('format')!r}")
    return [Collection.load(dump) for dump in snapshot.get("collections", [])]


def _rewrite_layout(path: Path, root: Path, found: str | None,
                    sources: list[tuple[Path, str]]) -> None:
    """Swap in the v3 log of all the old files hold, then flip the marker."""
    collections: dict[str, Collection] = {}
    for source, fmt in sources:
        name = unquote(source.name[: -len(SEGMENT_SUFFIXES[fmt])])
        if name not in collections:
            collections[name] = _read_segment(source, fmt, name)
    imported = found is None and path.exists()
    collections.update((c.name, c) for c in (_read_snapshot(path) if imported else []))
    data, _ = _encode_state(collections[name].dump() for name in sorted(collections))
    if data:
        _swap_in(root / wal.LOG_NAME, data)
    else:  # nothing to carry over: the marker's swap makes the file durable
        (root / wal.LOG_NAME).write_bytes(b"")
    if imported and path.exists():  # not quarantined
        (root / _MIGRATED_MARKER).write_text(path.name + "\n")
    wal.maybe_fault("mid-format-migration")
    _swap_in(root / wal.FORMAT_MARKER, (wal.FORMAT_V3 + "\n").encode())
    _log.warning("store: upgraded %s under %s to %s (%d collection(s))",
                 found or "a snapshot", root, wal.FORMAT_V3, len(collections))


def _rewrite_documents(database: Database) -> dict[str, int]:
    """Rewrite a v3 store's older documents; returns how many of each changed."""
    report = {"datasets": 0, "results": 0, "jobs": 0, "spans": 0,
              "shard_outputs": 0, "watermarks": 0, "alerts": 0}
    datasets = database["datasets"]
    for document in datasets.find():
        doc = document["dataset"]
        if doc.get("encoding") is None:  # JSON floats or null (NaN), ISO timestamps
            encoded = dataset_to_document(SensorDataset(
                str(doc["name"]),
                [datetime.fromisoformat(t) for t in doc["timeline"]],
                [Sensor(s["id"], s["attribute"], float(s["lat"]), float(s["lon"]))
                 for s in doc["sensors"]],
                {sid: np.array(values, dtype=np.float64) for sid, values in doc["series"].items()},
                attributes=doc["attributes"],
            ))
            datasets.replace_one({"_id": document["_id"]}, {**document, "dataset": encoded})
            report["datasets"] += 1
    cache = ResultCache(database) if ResultCache.COLLECTION in database else None
    for document in cache.documents() if cache else []:
        doc = document["result"]
        if doc.get("encoding") is None:  # the to_document() CAP list
            cache.put_encoded(cache.encode(MiningResult(
                dataset_name=str(doc["dataset"]),
                parameters=MiningParameters.from_document(doc["parameters"]),
                caps=[CAP.from_document(cap) for cap in doc["caps"]],
                elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
            )))
            report["results"] += 1
    jobs = database["jobs"]
    for document in jobs.find():
        if "output" in document:  # a pre-spill shard: move its output out
            spill_output(database, document, document["output"],
                         document.get("elapsed_seconds", 0.0))
            report["shard_outputs"] += 1
        if any(field in document for field in _RETIRED_JOB_FIELDS):
            kept = {k: v for k, v in document.items() if k not in _RETIRED_JOB_FIELDS}
            jobs.replace_one({"_id": document["_id"]}, kept)
            report["jobs"] += 1
    states = database[STREAM_STATE]
    for document in states.find():
        watermark = document.get("watermark")
        if watermark and watermark.get("encoding") is None:  # per-sensor int lists
            states.replace_one({"_id": document["_id"]},
                               {**document, "watermark": _pack_watermark(watermark)})
            report["watermarks"] += 1
    alerts = database[ALERTS]
    for document in alerts.find():
        if set(document) - {"_id", *STORED_FIELDS}:  # the full public body
            alerts.replace_one({"_id": document["_id"]}, stored_alert(document))
            report["alerts"] += 1
    if _LEGACY_SPANS in database:
        report["spans"] = len(database[_LEGACY_SPANS])
        database.drop_collection(_LEGACY_SPANS)
    return report


def _pack_watermark(watermark: Mapping[str, Any]) -> dict[str, Any]:
    """A list-form miner checkpoint (one int list per sensor) packed."""
    last_values = watermark.get("last_values", {})
    lists = watermark.get("evolving", {})
    evolving = {}
    for sid in dict.fromkeys([*last_values, *lists]):
        entry = lists.get(sid) or {}
        evolving[sid] = EvolvingSet(
            np.asarray(entry.get("indices", []), dtype=np.int64),
            np.asarray(entry.get("directions", []), dtype=np.int8),
        )
    return {
        "epoch": int(watermark.get("epoch", 0)),
        **pack_checkpoint(
            int(watermark["num_timestamps"]),
            str(watermark["last_timestamp"]),
            [last_values.get(sid) for sid in evolving],
            evolving,
        ),
    }
