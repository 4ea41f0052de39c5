"""CAP change feed: per-epoch diffs persisted as a monotone event sequence.

Each re-mine diffs the new CAP list against the previous epoch's snapshot
and emits ``cap_events``:

* ``new`` — a CAP identity absent from the previous epoch;
* ``extended`` — same identity, but its support grew (or its co-evolving
  windows changed) with the appended observations;
* ``retired`` — an identity from the previous epoch no longer mined.

A CAP's *identity* is ``(sensors, attributes, delays)`` — the pattern's
shape, stable across appends — while ``support``/``evolving_indices`` are
its evolution.  Events carry:

* ``seq`` — a per-dataset monotone cursor (1-based, no gaps), the resume
  token of ``GET .../events?cursor=``: a client that stored ``seq`` N
  re-reads everything after N, across server restarts, because events are
  ordinary WAL documents;
* ``event_id`` — a *deterministic* hash of (cache key, epoch, type,
  identity).  Replaying an epoch after a crash regenerates byte-identical
  ids, and the runner inserts events ``insert-if-missing`` by id — the
  feed can never hold duplicates, no matter where a worker died;
* ``epoch`` + ``key`` — which append produced it, under which parameters
  (the result cache key), per the "addressed by cache key + epoch"
  contract.

Ordering within one epoch is deterministic too (new, then extended, then
retired, each sorted by identity), so ``seq`` assignment is reproducible
on replay.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Mapping, Sequence

from .ingest import CAP_EVENTS, STREAM_STATE

__all__ = [
    "EVENT_NEW",
    "EVENT_EXTENDED",
    "EVENT_RETIRED",
    "EVENT_TYPES",
    "build_events",
    "cap_identity",
    "caps_by_identity",
    "diff_caps",
    "event_id",
    "latest_seq",
    "public_event",
    "read_events",
    "render_sse",
    "render_sse_bootstrap",
]

EVENT_NEW = "new"
EVENT_EXTENDED = "extended"
EVENT_RETIRED = "retired"
EVENT_TYPES = (EVENT_NEW, EVENT_EXTENDED, EVENT_RETIRED)


def cap_identity(cap: Mapping[str, Any]) -> tuple:
    """The append-stable identity of a CAP document: (sensors, attributes, delays)."""
    return (
        tuple(sorted(str(s) for s in cap.get("sensors", ()))),
        tuple(sorted(str(a) for a in cap.get("attributes", ()))),
        tuple((str(k), int(v)) for k, v in sorted(cap.get("delays", {}).items())),
    )


def caps_by_identity(caps: Sequence[Mapping[str, Any]]) -> dict[tuple, Mapping[str, Any]]:
    """One epoch's CAP documents keyed by :func:`cap_identity`.

    The resident miner keeps this beside its CAP list, so each epoch's
    identities are computed once, when that epoch is mined.
    """
    return {cap_identity(cap): cap for cap in caps}


def diff_caps(
    previous: Sequence[Mapping[str, Any]] | Mapping[tuple, Mapping[str, Any]],
    current: Sequence[Mapping[str, Any]] | Mapping[tuple, Mapping[str, Any]],
) -> list[tuple[str, Mapping[str, Any]]]:
    """Ordered ``(type, cap document)`` deltas between two epochs' CAPs.

    Each side is a CAP document list or its :func:`caps_by_identity` map.
    Deterministic: new first, then extended, then retired, each group
    sorted by identity — replaying the same epoch yields the same deltas
    in the same order, which makes ``seq`` assignment reproducible.
    """
    before = previous if isinstance(previous, Mapping) else caps_by_identity(previous)
    after = current if isinstance(current, Mapping) else caps_by_identity(current)
    new = sorted(after.keys() - before.keys())
    retired = sorted(before.keys() - after.keys())
    extended = sorted(
        identity
        for identity in after.keys() & before.keys()
        if int(after[identity].get("support", 0)) != int(before[identity].get("support", 0))
        or list(after[identity].get("evolving_indices", ()))
        != list(before[identity].get("evolving_indices", ()))
    )
    deltas: list[tuple[str, Mapping[str, Any]]] = []
    deltas += [(EVENT_NEW, after[identity]) for identity in new]
    deltas += [(EVENT_EXTENDED, after[identity]) for identity in extended]
    deltas += [(EVENT_RETIRED, before[identity]) for identity in retired]
    return deltas


def event_id(key: str, epoch: int, event_type: str, cap: Mapping[str, Any]) -> str:
    """Deterministic event address: hash of (cache key, epoch, type, identity)."""
    material = json.dumps(
        [key, int(epoch), event_type, cap_identity(cap)], sort_keys=True
    )
    return "ev-" + hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def build_events(
    dataset: str,
    key: str,
    epoch: int,
    deltas: Sequence[tuple[str, Mapping[str, Any]]],
    first_seq: int,
    *,
    clock=time.time,
) -> list[dict[str, Any]]:
    """Materialise one epoch's deltas as ``cap_events`` documents."""
    now = clock()
    return [
        {
            "event_id": event_id(key, epoch, event_type, cap),
            "dataset": dataset,
            "key": key,
            "epoch": int(epoch),
            "seq": first_seq + offset,
            "type": event_type,
            "cap": dict(cap),
            "created_at": now,
        }
        for offset, (event_type, cap) in enumerate(deltas)
    ]


def public_event(document: Mapping[str, Any]) -> dict[str, Any]:
    """An event document without store bookkeeping (``_id``)."""
    return {k: v for k, v in document.items() if k != "_id"}


def read_events(
    database: Any, dataset: str, cursor: int = 0, limit: int = 100
) -> list[dict[str, Any]]:
    """Events of one dataset with ``seq > cursor``, ascending, capped.

    A range query, not a scan: the ``seq`` term leads so the sorted
    index (see ``ServerState``'s index setup) narrows the candidates to
    the tail past the cursor before the predicate runs — a poll parked
    at cursor N touches only events it has not seen, however long the
    feed has grown.  Stores without the index still answer correctly
    through the predicate path, just without the narrowing.
    """
    rows = database.collection(CAP_EVENTS).find(
        {"seq": {"$gt": int(cursor)}, "dataset": dataset}, sort="seq", limit=limit
    )
    return [public_event(row) for row in rows]


def latest_seq(database: Any, dataset: str) -> int:
    """The newest assigned cursor position (0 when the feed is empty).

    Reuses the ``stream_state.next_seq`` high-water mark — maintained
    atomically with every event commit — instead of sorting the event
    collection for one max.  This also survives retention: a fully
    folded feed keeps answering its true latest seq even when the
    newest event documents have been trimmed.  Pre-first-claim (no
    state yet) the feed is necessarily empty, so the fallback scan only
    ever sees a handful of documents.
    """
    state = database.collection(STREAM_STATE).find_one({"name": dataset})
    if state is not None:
        return int(state.get("next_seq", 1)) - 1
    rows = database.collection(CAP_EVENTS).find(
        {"dataset": dataset}, sort="seq", descending=True, limit=1
    )
    return int(rows[0].get("seq", 0)) if rows else 0


def render_sse(events: Sequence[Mapping[str, Any]]) -> str:
    """Render events in ``text/event-stream`` framing.

    Each event becomes an ``id:`` line (its ``seq`` — what a reconnecting
    client passes back as ``cursor``), an ``event:`` line (its type), and
    one JSON ``data:`` line.  The server buffers responses, so the SSE
    endpoint serves *bounded* streams: the client reconnects with its last
    id to continue — exactly the SSE auto-reconnect contract.
    """
    chunks: list[str] = []
    for event in events:
        chunks.append(f"id: {int(event['seq'])}")
        chunks.append(f"event: {event['type']}")
        chunks.append("data: " + json.dumps(public_event(event), sort_keys=True))
        chunks.append("")
    return "\n".join(chunks) + ("\n" if chunks else "")


def render_sse_bootstrap(snapshot: Mapping[str, Any]) -> str:
    """The feed-snapshot frame an expired SSE reconnect bootstraps from.

    When a client reconnects with a ``Last-Event-ID`` behind the
    retention horizon, the trimmed prefix cannot be replayed; instead
    the stream opens with one ``event: snapshot`` frame carrying the
    folded CAP state, whose ``id:`` is ``first_live_seq - 1`` — exactly
    the cursor from which the live tail then continues, so the standard
    reconnect contract keeps working without any client-side special
    casing beyond understanding the frame type.
    """
    first_live = int(snapshot.get("first_live_seq", 1))
    return (
        f"id: {first_live - 1}\n"
        "event: snapshot\n"
        "data: " + json.dumps(dict(snapshot), sort_keys=True) + "\n\n"
    )
