"""Stream retention: bounded feeds via crash-safe horizon compaction.

PR 9's live subsystem is correct but unbounded: ``cap_events``,
``observations``, and ``alerts`` grow forever, and every resident-miner
claim replays the whole observation log.  This module folds retired
history behind a per-dataset **retention horizon**:

* **Feed compaction** — events with ``seq`` below the horizon are folded
  into one durable :data:`~repro.stream.ingest.FEED_SNAPSHOTS` document
  carrying the CAP state at the fold point and ``first_live_seq``, the
  oldest seq still served live.  The fold is a three-step exclusive
  section — insert snapshot, trim events (and the alerts they fired, which
  are rendered from those events and so retire with them), bump the
  completed-horizon marker on ``stream_state`` — ordered so a
  crash at *any* point leaves a state the next sweep converges from:
  the snapshot's ``first_live_seq`` is authoritative the instant it is
  written, so readers never see a silently-empty trimmed range.
* **Observation windowing** — the resident miner checkpoints its
  incremental state (:meth:`StreamingMiner.export_state`: the evolving
  sets as per-sensor counts plus packed index and direction columns, the
  last values as a ``<f8`` column) into ``stream_state.watermark`` with
  every epoch commit; the sweep may then drop observation batches up to
  the watermark epoch and record how far it got in
  ``stream_state.compacted_epoch``.  A later claim adopts the
  watermark and replays only epochs past it — byte-identical mining
  without the trimmed prefix (proven by the retention test matrix).

Invariants (checked by tests, documented in DESIGN.md):

* ``1 <= horizon_seq <= first_live_seq <= latest_seq + 1`` — the
  snapshot may run ahead of the completed trim, never behind;
* every event with ``seq >= first_live_seq`` is live and byte-identical
  to what an untrimmed feed would serve;
* ``compacted_epoch <= watermark.epoch <= mined_epoch`` — only epochs
  the checkpoint already covers are ever dropped.

``REPRO_STREAM_FAULT`` names a deterministic crash point
(:data:`FAULT_POINTS`), mirroring ``REPRO_STORE_FAULT`` one layer up:
``point[@dataset][:nth]`` hard-exits the process with
:data:`FAULT_EXIT_CODE` at the nth matching hit.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from ..faults import CrashPoints
from ..obs.metrics import get_registry
from .alerts import prune_alerts
from .ingest import (
    CAP_EVENTS,
    FEED_SNAPSHOTS,
    OBSERVATIONS,
    STREAM_CONFIG,
    STREAM_STATE,
)

__all__ = [
    "FAULT_ENV",
    "FAULT_EXIT_CODE",
    "FAULT_POINTS",
    "RetentionError",
    "compact_feed",
    "compact_observations",
    "feed_snapshot",
    "first_live_seq",
    "get_retention",
    "maybe_fault",
    "set_retention",
    "sweep_retention",
]

#: Crash-point env var: ``point[@dataset][:nth]``.
FAULT_ENV = "REPRO_STREAM_FAULT"

#: The named points of the compaction protocol a test can crash at.  Each
#: is reached inside its fold's section and fires once that section's one
#: commit is durable (``Database.after_commit``): the fold landed whole,
#: then the process died.
FAULT_POINTS = (
    "after-snapshot-insert",   # feed fold: snapshot inserted
    "after-event-trim",        # feed fold: events and alerts trimmed
    "after-observation-trim",  # observation fold: batches trimmed
)

#: Distinct from the store's 71 and the job registry's 70, so a test can
#: tell *which* layer's crash point fired.
FAULT_EXIT_CODE = 72

_CRASH_POINTS = CrashPoints(FAULT_ENV, FAULT_EXIT_CODE)
fault_armed = _CRASH_POINTS.armed
maybe_fault = _CRASH_POINTS.maybe_fault

_METRICS = get_registry()
_COMPACTIONS = _METRICS.counter(
    "repro_stream_compactions_total",
    "Stream retention folds completed, per dataset and target "
    "(feed = cap_events/alerts, observations = replay window).",
    labels=("dataset", "target"),
)


def _fault_point(database: Any, point: str, name: str) -> None:
    """Arm a crash point to fire once the open section has committed."""
    database.after_commit(lambda: maybe_fault(point, name))


class RetentionError(ValueError):
    """A retention configuration that fails validation (HTTP 400)."""


#: Both knobs default to off; retention only runs for datasets where at
#: least one is set (per-dataset config or the server-wide default).
DEFAULT_RETENTION: dict[str, Any] = {
    "retention_seqs": None,
    "retention_seconds": None,
}


def _validate_retention(payload: Mapping[str, Any]) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise RetentionError("retention config must be a JSON object")
    unknown = set(payload) - set(DEFAULT_RETENTION)
    if unknown:
        raise RetentionError(
            f"unknown retention keys: {sorted(unknown)} "
            f"(expected retention_seqs and/or retention_seconds)"
        )
    changes: dict[str, Any] = {}
    if "retention_seqs" in payload:
        seqs = payload["retention_seqs"]
        if seqs is not None:
            if not isinstance(seqs, int) or isinstance(seqs, bool) or seqs < 1:
                raise RetentionError(
                    f"retention_seqs must be a positive integer or null, got {seqs!r}"
                )
        changes["retention_seqs"] = seqs
    if "retention_seconds" in payload:
        seconds = payload["retention_seconds"]
        if seconds is not None:
            if (
                not isinstance(seconds, (int, float))
                or isinstance(seconds, bool)
                or not seconds > 0
            ):
                raise RetentionError(
                    f"retention_seconds must be a positive number or null, "
                    f"got {seconds!r}"
                )
            seconds = float(seconds)
        changes["retention_seconds"] = seconds
    return changes


def get_retention(
    database: Any, name: str, default: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The effective retention config: per-dataset overrides over the
    server default over off-by-default."""
    config = dict(DEFAULT_RETENTION)
    for key, value in (default or {}).items():
        if key in config:
            config[key] = value
    document = database.collection(STREAM_CONFIG).find_one({"name": name})
    if document is not None:
        for key in DEFAULT_RETENTION:
            if key in document:
                config[key] = document[key]
    return config


def set_retention(
    database: Any, name: str, payload: Mapping[str, Any], *, clock=time.time
) -> dict[str, Any]:
    """PATCH semantics: validate and merge the provided keys only.

    Returns the dataset's stored (not default-merged) config document.
    Raises :class:`RetentionError` on any invalid key or value.
    """
    changes = _validate_retention(payload)
    collection = database.collection(STREAM_CONFIG)
    with database.exclusive():
        document = collection.find_one({"name": name})
        if document is None:
            document = {"name": name, **DEFAULT_RETENTION}
            document.update(changes)
            document["updated_at"] = clock()
            collection.insert_one(document)
        else:
            changes["updated_at"] = clock()
            collection.update_one({"name": name}, changes)
            document = {**document, **changes}
    return {k: v for k, v in document.items() if k != "_id"}


def retention_enabled(config: Mapping[str, Any]) -> bool:
    return bool(config.get("retention_seqs") or config.get("retention_seconds"))


# -- horizon reads ---------------------------------------------------------------


def feed_snapshot(database: Any, name: str) -> dict[str, Any] | None:
    """The dataset's feed snapshot document (None before any fold)."""
    document = database.collection(FEED_SNAPSHOTS).find_one({"dataset": name})
    if document is None:
        return None
    return {k: v for k, v in document.items() if k != "_id"}


def first_live_seq(database: Any, name: str) -> int:
    """The oldest event seq still served live (1 when nothing retired).

    The *snapshot's* ``first_live_seq`` is authoritative: it is written
    before the trim, so a cursor below it answers ``410 cursor_expired``
    from the moment the fold is durable — never a silently-empty page
    from a half-trimmed feed.
    """
    snapshot = database.collection(FEED_SNAPSHOTS).find_one({"dataset": name})
    if snapshot is None:
        return 1
    return int(snapshot.get("first_live_seq", 1))


# -- compaction ------------------------------------------------------------------


def _feed_horizon(
    database: Any, name: str, config: Mapping[str, Any], latest: int, now: float
) -> int:
    """The seq the retention config retires everything below.

    ``retention_seqs`` keeps the newest N events; ``retention_seconds``
    keeps events created within the window.  When both are set the
    *tighter* (higher) horizon wins.
    """
    horizon = 1
    seqs = config.get("retention_seqs")
    if seqs:
        horizon = max(horizon, latest - int(seqs) + 1)
    seconds = config.get("retention_seconds")
    if seconds:
        cutoff = now - float(seconds)
        aged = 1
        for row in database.collection(CAP_EVENTS).find(
            {"dataset": name}, sort="seq"
        ):
            if float(row.get("created_at", now)) >= cutoff:
                break
            aged = int(row.get("seq", 0)) + 1
        horizon = max(horizon, aged)
    return min(horizon, latest + 1)


def compact_feed(
    database: Any,
    name: str,
    config: Mapping[str, Any],
    *,
    clock=time.time,
) -> dict[str, Any]:
    """Fold ``cap_events`` (and their alerts) behind the retention horizon.

    The crash-safe order inside one exclusive (fsynced) section:

    1. upsert the snapshot carrying the new ``first_live_seq`` plus the
       CAP state at ``mined_epoch`` — readers adopt the horizon *now*;
    2. trim events and alerts with ``seq`` below it;
    3. bump ``stream_state.horizon_seq``, the completed-trim marker.

    The section commits as one store record, so a crash anywhere inside
    it drops the whole fold and the next sweep redoes it; the order keeps
    lock-free readers of this process from ever seeing a trimmed range
    without its snapshot.  Re-runs are idempotent because the horizon is
    recomputed from the same monotone inputs.
    """
    now = clock()
    with database.exclusive():
        state = database.collection(STREAM_STATE).find_one({"name": name})
        if state is None:
            return {"dataset": name, "target": "feed", "compacted": False}
        latest = int(state.get("next_seq", 1)) - 1
        current = first_live_seq(database, name)
        horizon = _feed_horizon(database, name, config, latest, now)
        completed = int(state.get("horizon_seq", 1))
        if horizon <= current and completed >= current:
            return {
                "dataset": name,
                "target": "feed",
                "compacted": False,
                "first_live_seq": current,
            }
        target = max(horizon, current)
        snapshot = {
            "dataset": name,
            "first_live_seq": target,
            "epoch": int(state.get("mined_epoch", 0)),
            "caps": state.get("caps", []),
            "latest_seq": latest,
            "created_at": now,
        }
        snapshots = database.collection(FEED_SNAPSHOTS)
        if snapshots.replace_one({"dataset": name}, snapshot) is None:
            snapshots.insert_one(snapshot)
        _fault_point(database, "after-snapshot-insert", name)
        trimmed = database.collection(CAP_EVENTS).delete_many(
            {"seq": {"$lt": target}, "dataset": name}
        )
        pruned = prune_alerts(database, name, target)
        _fault_point(database, "after-event-trim", name)
        database.collection(STREAM_STATE).update_one(
            {"name": name}, {"horizon_seq": target}
        )
    _COMPACTIONS.inc(name, "feed")
    return {
        "dataset": name,
        "target": "feed",
        "compacted": True,
        "first_live_seq": target,
        "trimmed_events": trimmed,
        "trimmed_alerts": pruned,
    }


def compact_observations(
    database: Any,
    name: str,
    config: Mapping[str, Any],
    *,
    clock=time.time,
) -> dict[str, Any]:
    """Drop observation batches the miner watermark already covers.

    Only epochs at or below ``stream_state.watermark.epoch`` are
    droppable — the checkpoint reconstructs the miner without them; with
    ``retention_seconds`` set, additionally only batches older than the
    window.  The trim precedes the ``compacted_epoch`` bump so a crash
    between them is safe: session rebuild keys off the watermark, never
    off ``compacted_epoch``.
    """
    now = clock()
    with database.exclusive():
        state = database.collection(STREAM_STATE).find_one({"name": name})
        if state is None or not state.get("watermark"):
            return {"dataset": name, "target": "observations", "compacted": False}
        target = int(state["watermark"].get("epoch", 0))
        seconds = config.get("retention_seconds")
        if seconds:
            cutoff = now - float(seconds)
            recent = database.collection(OBSERVATIONS).find(
                {"dataset": name, "epoch": {"$lte": target}}, sort="epoch"
            )
            aged = 0
            for row in recent:
                if float(row.get("appended_at", now)) >= cutoff:
                    break
                aged = int(row.get("epoch", 0))
            target = min(target, aged)
        compacted = int(state.get("compacted_epoch", 0))
        if target <= compacted:
            return {
                "dataset": name,
                "target": "observations",
                "compacted": False,
                "compacted_epoch": compacted,
            }
        trimmed = database.collection(OBSERVATIONS).delete_many(
            {"dataset": name, "epoch": {"$lte": target}}
        )
        _fault_point(database, "after-observation-trim", name)
        database.collection(STREAM_STATE).update_one(
            {"name": name}, {"compacted_epoch": target}
        )
    _COMPACTIONS.inc(name, "observations")
    return {
        "dataset": name,
        "target": "observations",
        "compacted": True,
        "compacted_epoch": target,
        "trimmed_batches": trimmed,
    }


def sweep_retention(
    database: Any,
    *,
    default: Mapping[str, Any] | None = None,
    clock=time.time,
) -> list[dict[str, Any]]:
    """One retention pass over every dataset with a live stream.

    Datasets without any retention knob set (per-dataset or server-wide
    default) are skipped — retention is strictly opt-in.
    """
    results: list[dict[str, Any]] = []
    for state in database.collection(STREAM_STATE).find():
        name = str(state.get("name", ""))
        if not name:
            continue
        config = get_retention(database, name, default=default)
        if not retention_enabled(config):
            continue
        results.append(compact_feed(database, name, config, clock=clock))
        results.append(compact_observations(database, name, config, clock=clock))
    return results
