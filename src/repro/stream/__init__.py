"""Live ingestion subsystem: observation append, change feed, alerts.

The paper's smart-city framing is a *monitoring* workload — sensors keep
reporting and co-actions appear, strengthen, and retire — but until PR 9
every surface of this repo was batch: upload a dataset, mine it once.
This package turns the incremental engine (:mod:`repro.core.streaming`)
into a served subsystem:

* :mod:`~repro.stream.ingest` — validated, WAL-durable observation batch
  append; each accepted batch bumps the dataset's **stream epoch** (a
  monotone append counter, distinct from the destructive re-upload
  *generation*).
* :mod:`~repro.stream.runner` — the ``stream`` job kind
  (``mode=streaming``): its open rule, its resident drain runner, and the
  working state that replays the observation log to the persisted
  high-water mark, drains new epochs through
  :meth:`StreamingMiner.extend`, and re-mines only when an η-graph
  component was actually touched.
* :mod:`~repro.stream.feed` — per-epoch CAP diffs persisted as a
  monotone ``cap_events`` sequence (``new`` / ``extended`` / ``retired``),
  consumed through cursor long-poll and SSE endpoints.
* :mod:`~repro.stream.alerts` — threshold rules over CAP events with
  multi-level severity, fired exactly once per matching event.

See DESIGN.md "Live ingestion & alerting" for the epoch model, the feed
cursor semantics, and the alert rule grammar.
"""

from .alerts import (
    RuleError,
    evaluate_rules,
    match_level,
    prune_alerts,
    public_rule,
    render_alerts,
    validate_rule,
)
from .feed import (
    EVENT_EXTENDED,
    EVENT_NEW,
    EVENT_RETIRED,
    EVENT_TYPES,
    build_events,
    cap_identity,
    diff_caps,
    event_id,
    latest_seq,
    public_event,
    read_events,
    render_sse,
    render_sse_bootstrap,
)
from .ingest import (
    ALERT_RULES,
    ALERTS,
    CAP_EVENTS,
    FEED_SNAPSHOTS,
    OBSERVATIONS,
    STREAM_CONFIG,
    STREAM_EPOCHS,
    STREAM_STATE,
    BatchError,
    append_batch,
    batch_id,
    current_epoch,
    purge_stream,
    update_lag,
)
from .retention import (
    RetentionError,
    compact_feed,
    compact_observations,
    feed_snapshot,
    first_live_seq,
    get_retention,
    set_retention,
    sweep_retention,
)
from .runner import (
    STREAM_OPEN_RULE,
    StreamSession,
    load_batch,
    stream_runner,
    stream_state,
)

__all__ = [
    "ALERT_RULES",
    "ALERTS",
    "CAP_EVENTS",
    "EVENT_EXTENDED",
    "EVENT_NEW",
    "EVENT_RETIRED",
    "EVENT_TYPES",
    "FEED_SNAPSHOTS",
    "OBSERVATIONS",
    "STREAM_CONFIG",
    "STREAM_EPOCHS",
    "STREAM_OPEN_RULE",
    "STREAM_STATE",
    "BatchError",
    "RetentionError",
    "RuleError",
    "StreamSession",
    "append_batch",
    "batch_id",
    "build_events",
    "cap_identity",
    "compact_feed",
    "compact_observations",
    "current_epoch",
    "diff_caps",
    "evaluate_rules",
    "event_id",
    "feed_snapshot",
    "first_live_seq",
    "get_retention",
    "latest_seq",
    "load_batch",
    "match_level",
    "prune_alerts",
    "public_event",
    "public_rule",
    "purge_stream",
    "read_events",
    "render_alerts",
    "render_sse",
    "render_sse_bootstrap",
    "set_retention",
    "stream_runner",
    "stream_state",
    "sweep_retention",
    "update_lag",
    "validate_rule",
]
