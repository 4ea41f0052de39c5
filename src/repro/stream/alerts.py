"""Threshold alert engine: predicate rules over CAP events.

Modelled on the gateway-RTU shape (SNIPPETS.md Snippet 1): a rule holds an
ordered ladder of severity levels, an event is graded against the ladder,
and the *highest* matching level wins.  Here the graded quantity is the
size of the co-acting sensor set — "alert when ≥ k sensors co-evolve".

Rule grammar (stored as ``alert_rules`` documents, validated on POST)::

    {
      "rule_id":     "heatwave",             # [A-Za-z0-9_.-]+, unique per dataset
      "name":        "Heatwave watch",        # optional display name
      "event_types": ["new", "extended"],    # optional; default: all three
      "attribute":   "temperature",          # optional; CAP must cover it
      "levels": [                             # ≥ 1, distinct min_sensors
        {"min_sensors": 2, "severity": "info"},
        {"min_sensors": 3, "severity": "warning"},
        {"min_sensors": 4, "severity": "critical"}
      ]
    }

Evaluation happens in the resident miner as each epoch's events are
persisted: a matching (rule, event) pair fires **exactly once**, ever —
the alert's id is ``{rule_id}:{event_id}``, and it is inserted in the
same exclusive section as the events themselves, behind that section's
compare-and-set on the epoch, so a crash-replayed epoch regenerates the
same ids and re-fires nothing.

A fired alert is stored as a reference to its event
(:data:`STORED_FIELDS`: rule, severity, ``event_id``/``seq``,
``fired_at``); :func:`render_alerts` rebuilds the public body — adding
``alert_id``, ``event_type``, ``epoch``, ``num_sensors`` and ``sensors``
from the event — for both ``GET …/alerts`` and ``repro alerts``.  The
event is live whenever its alert is: the retention fold trims both below
one horizon in one section, and a purge drops both.  ``rule_name`` is
stored because a rule may be deleted after it fired.
"""

from __future__ import annotations

import re
from typing import Any, Mapping, Sequence

from ..obs.metrics import get_registry
from .feed import EVENT_TYPES
from .ingest import ALERTS, CAP_EVENTS

__all__ = [
    "RuleError",
    "evaluate_rules",
    "match_level",
    "prune_alerts",
    "public_rule",
    "render_alerts",
    "stored_alert",
    "validate_rule",
]

_METRICS = get_registry()
_ALERTS_FIRED = _METRICS.counter(
    "repro_alerts_fired_total",
    "Alerts fired by the stream alert engine, per rule.",
    labels=("rule",),
)

_RULE_ID = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


class RuleError(ValueError):
    """An alert rule definition that fails validation (HTTP 400)."""


def validate_rule(dataset: str, payload: Any) -> dict[str, Any]:
    """Normalise one rule payload into its stored document form.

    Levels are sorted ascending by ``min_sensors`` so :func:`match_level`
    can take the last match as the highest severity.
    """
    if not isinstance(payload, Mapping):
        raise RuleError("rule body must be a JSON object")
    rule_id = payload.get("rule_id")
    if not isinstance(rule_id, str) or not _RULE_ID.match(rule_id):
        raise RuleError("'rule_id' must match [A-Za-z0-9_.-]{1,64}")
    event_types = payload.get("event_types", list(EVENT_TYPES))
    if not isinstance(event_types, list) or not event_types:
        raise RuleError("'event_types' must be a non-empty list when given")
    unknown = set(map(str, event_types)) - set(EVENT_TYPES)
    if unknown:
        raise RuleError(
            f"unknown event types {sorted(unknown)}; valid: {list(EVENT_TYPES)}"
        )
    attribute = payload.get("attribute")
    if attribute is not None and not isinstance(attribute, str):
        raise RuleError("'attribute' must be a string when given")
    levels_raw = payload.get("levels")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise RuleError("'levels' must be a non-empty list")
    levels: list[dict[str, Any]] = []
    for entry in levels_raw:
        if not isinstance(entry, Mapping):
            raise RuleError("each level must be an object")
        min_sensors = entry.get("min_sensors")
        severity = entry.get("severity")
        if not isinstance(min_sensors, int) or isinstance(min_sensors, bool) or min_sensors < 2:
            raise RuleError("'min_sensors' must be an integer >= 2 (CAPs have >= 2 sensors)")
        if not isinstance(severity, str) or not severity:
            raise RuleError("'severity' must be a non-empty string")
        levels.append({"min_sensors": min_sensors, "severity": severity})
    thresholds = [level["min_sensors"] for level in levels]
    if len(set(thresholds)) != len(thresholds):
        raise RuleError("level 'min_sensors' thresholds must be distinct")
    levels.sort(key=lambda level: level["min_sensors"])
    name = payload.get("name", rule_id)
    if not isinstance(name, str) or not name:
        raise RuleError("'name' must be a non-empty string when given")
    return {
        "rule_id": rule_id,
        "dataset": dataset,
        "name": name,
        "event_types": sorted(set(map(str, event_types))),
        "attribute": attribute,
        "levels": levels,
    }


def public_rule(document: Mapping[str, Any]) -> dict[str, Any]:
    """A rule document without store bookkeeping (``_id``, merge uid)."""
    return {k: v for k, v in document.items() if k not in ("_id", "rule_uid")}


def match_level(
    rule: Mapping[str, Any], event: Mapping[str, Any]
) -> dict[str, Any] | None:
    """The highest severity level ``event`` reaches under ``rule``, if any."""
    if event.get("type") not in rule.get("event_types", ()):
        return None
    cap = event.get("cap") or {}
    attribute = rule.get("attribute")
    if attribute and attribute not in cap.get("attributes", ()):
        return None
    size = len(cap.get("sensors", ()))
    matched: dict[str, Any] | None = None
    for level in rule.get("levels", ()):  # ascending min_sensors
        if size >= int(level["min_sensors"]):
            matched = dict(level)
    return matched


def evaluate_rules(
    rules: Sequence[Mapping[str, Any]],
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Alert documents (sans ``fired_at``) for every matching (rule, event).

    Deterministic: events in feed order, rules sorted by id — replaying
    an epoch produces the same alerts with the same ids.
    """
    alerts: list[dict[str, Any]] = []
    for event in events:
        for rule in sorted(rules, key=lambda r: str(r.get("rule_id", ""))):
            level = match_level(rule, event)
            if level is None:
                continue
            cap = event.get("cap") or {}
            alerts.append(
                {
                    "alert_id": f"{rule['rule_id']}:{event['event_id']}",
                    "rule_id": str(rule["rule_id"]),
                    "rule_name": str(rule.get("name", rule["rule_id"])),
                    "dataset": str(event["dataset"]),
                    "event_id": str(event["event_id"]),
                    "event_type": str(event["type"]),
                    "epoch": int(event["epoch"]),
                    "seq": int(event["seq"]),
                    "severity": str(level["severity"]),
                    "min_sensors": int(level["min_sensors"]),
                    "num_sensors": len(cap.get("sensors", ())),
                    "sensors": [str(s) for s in cap.get("sensors", ())],
                }
            )
    return alerts


#: The fields a fired alert is stored with; the rest of its public body
#: is its event's (:func:`render_alerts`).
STORED_FIELDS = (
    "rule_id", "rule_name", "dataset", "event_id", "seq", "severity",
    "min_sensors", "fired_at",
)


def stored_alert(alert: Mapping[str, Any]) -> dict[str, Any]:
    """The stored reference form of a fired alert's public body."""
    return {field: alert[field] for field in STORED_FIELDS}


def render_alerts(
    database: Any, dataset: str, rows: Sequence[Mapping[str, Any]]
) -> list[dict[str, Any]]:
    """The public bodies of stored alerts of ``dataset``, in ``rows`` order.

    Reads the events the alerts reference with one range query over their
    ``seq`` span.  A missing event breaks the alerts-with-events invariant
    and raises ``LookupError``.
    """
    if not rows:
        return []
    seqs = [int(row["seq"]) for row in rows]
    events = {
        event["event_id"]: event
        for event in database.collection(CAP_EVENTS).find(
            {"seq": {"$gte": min(seqs), "$lte": max(seqs)}, "dataset": dataset}
        )
    }
    bodies: list[dict[str, Any]] = []
    for row in rows:
        event = events.get(row["event_id"])
        if event is None:
            raise LookupError(
                f"alert of rule {row['rule_id']!r} references event "
                f"{row['event_id']!r}, which is not in the feed"
            )
        sensors = [str(s) for s in event["cap"].get("sensors", ())]
        bodies.append({
            "alert_id": f"{row['rule_id']}:{row['event_id']}",
            **{field: row[field] for field in STORED_FIELDS},
            "event_type": str(event["type"]),
            "epoch": int(event["epoch"]),
            "num_sensors": len(sensors),
            "sensors": sensors,
        })
    return bodies


def record_fired(rule_id: str) -> None:
    """Bump ``repro_alerts_fired_total{rule=...}`` for one fired alert."""
    _ALERTS_FIRED.inc(rule_id)


def prune_alerts(database: Any, dataset: str, horizon_seq: int) -> int:
    """Drop fired alerts whose triggering event retired behind the horizon.

    Alerts address events by ``seq``; once the retention fold trims the
    event itself, the alert's referent is gone from the live feed, so it
    retires with it (the exactly-once guarantee is untouched — a replayed
    epoch behind the horizon is impossible by the watermark invariant).
    Returns the number of alerts removed.
    """
    return database.collection(ALERTS).delete_many(
        {"seq": {"$lt": int(horizon_seq)}, "dataset": dataset}
    )
