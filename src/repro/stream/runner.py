"""Working state of the resident streaming-miner job.

The ``stream`` job kind is *resident but polite*: a claimed worker drains
every appended epoch, then releases its claim with a short retry gate and
returns — a :class:`~repro.jobs.executor.ClaimLoop` re-claims it on its
next beat (or another process does).  Liveness therefore never
depends on one thread surviving: a ``kill -9`` mid-drain just leaves a
lapsed lease, and whoever reclaims the job rebuilds this session.

Recovery contract (the kill -9 test's ground truth):

* the **high-water mark** is ``stream_state.mined_epoch`` — advanced
  atomically *with* that epoch's events and CAP snapshot in one exclusive
  (fsynced) section, so it can never run ahead of the feed;
* a new session adopts the persisted **watermark** — the miner's
  incremental state checkpointed with every commit
  (:meth:`StreamingMiner.export_state`) — then replays only the
  observation log *past* it through :meth:`StreamingMiner.extend`
  (cheap — no mining) and resumes at ``mined_epoch + 1``.  Windowed
  replay is what lets the retention sweep
  (:mod:`repro.stream.retention`) drop batches at or below the
  watermark epoch without ever breaking a rebuild;
* re-processing an epoch whose events were written but whose state
  advance was lost is harmless: deltas and event ids are deterministic,
  and events/alerts are inserted if-missing — no lost and no duplicated
  ``cap_events``.

Re-mining is component-pruned: a batch that adds evolving timestamps to
no sensor leaves every η-graph component's CAP list provably unchanged
(:meth:`StreamingMiner.affected_components`), so the session skips the
search entirely and diffs against an unchanged snapshot.
"""

from __future__ import annotations

import time
from datetime import datetime
from typing import Any, Callable

import numpy as np

from ..core.parallel import MiningCancelled
from ..core.parameters import MiningParameters
from ..core.streaming import StreamingMiner
from ..core.types import SensorDataset
from .alerts import evaluate_rules, public_rule, record_fired
from .feed import build_events, diff_caps
from .ingest import (
    ALERT_RULES,
    ALERTS,
    CAP_EVENTS,
    OBSERVATIONS,
    STREAM_STATE,
    batch_id,
    current_epoch,
    update_lag,
)

__all__ = ["StreamSession", "load_batch", "stream_state"]


def stream_state(database: Any, name: str) -> dict[str, Any] | None:
    """The persisted miner high-water mark document (None pre-first-claim)."""
    return database.collection(STREAM_STATE).find_one({"name": name})


def load_batch(
    database: Any, name: str, epoch: int
) -> tuple[list[datetime], dict[str, np.ndarray]]:
    """One observation batch back in :meth:`StreamingMiner.extend` form."""
    document = database.collection(OBSERVATIONS).find_one(
        {"batch_id": batch_id(name, epoch)}
    )
    if document is None:
        raise LookupError(
            f"observation batch {batch_id(name, epoch)} is missing from the log"
        )
    timeline = [datetime.fromisoformat(t) for t in document["timeline"]]
    series = {
        sid: np.asarray(
            [np.nan if value is None else float(value) for value in row],
            dtype=np.float64,
        )
        for sid, row in document["series"].items()
    }
    return timeline, series


class StreamSession:
    """One claim's working state: a miner replayed to the high-water mark.

    Parameters
    ----------
    database:
        The (shared) document store.
    dataset:
        The base dataset, as uploaded.
    params:
        Mining parameters (``segmentation`` must be ``"none"``).
    key:
        The result cache key of (dataset, params) — the feed's address.
    checkpoint:
        Optional cancellation hook, called between replayed epochs.
    current:
        Optional check that ``dataset`` is still the stored one, run inside
        each write's exclusive section; a failed check raises
        :class:`MiningCancelled` and writes nothing.
    """

    def __init__(
        self,
        database: Any,
        dataset: SensorDataset,
        params: MiningParameters,
        key: str,
        *,
        checkpoint: Callable[[], None] | None = None,
        current: Callable[[], bool] | None = None,
        clock=time.time,
    ) -> None:
        self.database = database
        self.dataset = dataset
        self.params = params
        self.key = key
        self.current = current
        self.clock = clock
        self.miner = StreamingMiner(params, dataset)
        state = stream_state(database, dataset.name)
        if state is None:
            # First claim ever: the epoch-0 baseline is a mine of the base
            # dataset.  No events — the feed describes *changes*, and the
            # base result is what the batch endpoints already serve.
            baseline = [cap.to_document() for cap in self.miner.mine().caps]
            state = {
                "name": dataset.name,
                "key": key,
                "mined_epoch": 0,
                "caps": baseline,
                "next_seq": 1,
                "last_timestamp": dataset.timeline[-1].isoformat(),
                "updated_at": clock(),
                "watermark": {"epoch": 0, **self.miner.export_state()},
            }
            with database.exclusive():
                self._require_current()
                existing = stream_state(database, dataset.name)
                if existing is None:
                    database.collection(STREAM_STATE).insert_one(state)
                else:  # lost the init race to a peer; adopt its baseline
                    state = existing
        self.caps: list[dict[str, Any]] = [dict(cap) for cap in state["caps"]]
        self.mined_epoch = int(state["mined_epoch"])
        self.next_seq = int(state["next_seq"])
        # Windowed replay: adopt the persisted miner checkpoint, then
        # replay only the log past it to rebuild the evolving sets
        # (extend only — the CAP snapshot above replaces re-mining it).
        # The retention sweep may have dropped batches at or below the
        # watermark epoch; the checkpoint makes them unnecessary.
        watermark = state.get("watermark")
        replay_from = 1
        if watermark and int(watermark.get("epoch", 0)) <= self.mined_epoch:
            # Never adopt a checkpoint *ahead* of the high-water mark (a
            # hand-rolled-back or corrupted state document): re-mining
            # epochs the checkpoint already covers would break the grid.
            self.miner.adopt_state(watermark)
            replay_from = int(watermark.get("epoch", 0)) + 1
        self.replayed_epochs = 0
        for epoch in range(replay_from, self.mined_epoch + 1):
            if checkpoint is not None:
                checkpoint()
            timeline, series = load_batch(database, dataset.name, epoch)
            self.miner.extend(timeline, series)
            self.replayed_epochs += 1

    def _require_current(self) -> None:
        if self.current is not None and not self.current():
            raise MiningCancelled(f"dataset {self.dataset.name!r} was replaced")

    def pending_epochs(self) -> range:
        """Appended-but-unmined epochs, oldest first."""
        appended, _ = current_epoch(self.database, self.dataset.name)
        return range(self.mined_epoch + 1, appended + 1)

    def process_epoch(
        self,
        epoch: int,
        *,
        on_alert: Callable[[dict[str, Any]], None] | None = None,
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Absorb one epoch: extend, (maybe) re-mine, diff, persist, alert.

        Returns ``(events, alerts fired now)``.  Everything durable —
        events, alerts, and the high-water-mark advance — lands in one
        exclusive section, or nothing does when the ``current`` check
        fails there; ``on_alert`` runs only for alerts this call actually
        inserted (crash-replay fires nothing twice).
        """
        if epoch != self.mined_epoch + 1:
            raise ValueError(
                f"epoch {epoch} out of order; next unmined is {self.mined_epoch + 1}"
            )
        timeline, series = load_batch(self.database, self.dataset.name, epoch)
        self.miner.extend(timeline, series)
        if self.miner.affected_components():
            caps_after = [cap.to_document() for cap in self.miner.mine().caps]
        else:
            caps_after = self.caps
        deltas = diff_caps(self.caps, caps_after)
        events = build_events(
            self.dataset.name, self.key, epoch, deltas, self.next_seq, clock=self.clock
        )
        rules = [
            public_rule(rule)
            for rule in self.database.collection(ALERT_RULES).find(
                {"dataset": self.dataset.name}
            )
        ]
        alerts = evaluate_rules(rules, events)
        fired: list[dict[str, Any]] = []
        now = self.clock()
        with self.database.exclusive():
            self._require_current()
            events_collection = self.database.collection(CAP_EVENTS)
            for event in events:
                if events_collection.find_one({"event_id": event["event_id"]}) is None:
                    events_collection.insert_one(event)
            alerts_collection = self.database.collection(ALERTS)
            for alert in alerts:
                if alerts_collection.find_one({"alert_id": alert["alert_id"]}) is None:
                    alerts_collection.insert_one({**alert, "fired_at": now})
                    fired.append(alert)
            self.database.collection(STREAM_STATE).update_one(
                {"name": self.dataset.name},
                {
                    "mined_epoch": epoch,
                    "caps": caps_after,
                    "next_seq": self.next_seq + len(events),
                    "last_timestamp": timeline[-1].isoformat(),
                    "updated_at": now,
                    # The miner checkpoint rides the same atomic commit,
                    # so the watermark can never run ahead of (or lag) the
                    # high-water mark — the retention sweep may drop every
                    # batch at or below it the moment this section lands.
                    "watermark": {"epoch": epoch, **self.miner.export_state()},
                },
            )
        self.caps = caps_after
        self.mined_epoch = epoch
        self.next_seq += len(events)
        for alert in fired:
            record_fired(alert["rule_id"])
            if on_alert is not None:
                on_alert(alert)
        update_lag(self.database, self.dataset)
        return events, fired
