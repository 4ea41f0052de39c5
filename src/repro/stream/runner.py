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
  (:meth:`StreamingMiner.export_state`: packed columns of the evolving
  sets and last values, built before the section opens) — then
  replays only the observation log *past* it through
  :meth:`StreamingMiner.extend` (cheap — no mining) and resumes at
  ``mined_epoch + 1``.  Windowed replay is what lets the retention sweep
  (:mod:`repro.stream.retention`) drop batches at or below the
  watermark epoch without ever breaking a rebuild;
* the commit is a compare-and-set on ``mined_epoch == epoch - 1``
  inside that same section, and a section commits whole or not at all:
  an epoch's events and alerts exist exactly when its state advance
  does, so a resumed session re-mines only epochs that never committed,
  and a stale session racing a newer claim commits nothing — no lost
  and no duplicated ``cap_events``.  Alerts are stored as references to
  their events (:func:`repro.stream.alerts.stored_alert`).

Re-mining is component-pruned: a batch that adds evolving timestamps to
no sensor leaves every η-graph component's CAP list provably unchanged
(:meth:`StreamingMiner.affected_components`), so the session skips the
search entirely and diffs against an unchanged snapshot.

The kind's registry rule is its open rule (:data:`STREAM_OPEN_RULE`); its
claimed execution is :func:`stream_runner`, one drain of a session.
"""

from __future__ import annotations

import time
from datetime import datetime
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.parallel import MiningCancelled
from ..core.parameters import MiningParameters
from ..core.streaming import StreamingMiner
from ..core.types import SensorDataset
from ..jobs import HANDLED, KIND_STREAM, RUNNING, Job
from ..store.frozen import freeze
from .alerts import evaluate_rules, public_rule, record_fired, stored_alert
from .feed import build_events, caps_by_identity, diff_caps
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

__all__ = [
    "STREAM_OPEN_RULE",
    "StreamSession",
    "load_batch",
    "stream_runner",
    "stream_state",
]

#: The stream kind's open rule, as ``DurableJobStore.open_job`` keywords:
#: one live job per dataset *name* (re-submitting with different
#: parameters keeps the running miner rather than racing a second one
#: against the same feed), ids ``stream-NNNN-…``, and ``max_attempts=0``
#: (unlimited) — every idle release and lease-expiry requeue grows
#: ``attempt``, and a resident job must never dead-letter itself by simply
#: living.
STREAM_OPEN_RULE = {
    "kind": KIND_STREAM,
    "dedup_on": "dataset",
    "id_prefix": "stream",
    "max_attempts": 0,
}

# Resident-miner cadence: a drained stream job idles this long, then
# releases its claim gated for re-claim after the poll delay.
_IDLE_SECONDS = 0.5
_POLL_SECONDS = 0.25


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
            baseline = self.miner.mine().caps.documents()
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
        # Frozen, so an unaffected epoch's commit stages them as they are;
        # their identities ride along so no epoch recomputes the last one's.
        self.caps: Sequence[Mapping[str, Any]] = freeze(state["caps"])
        self.identities = caps_by_identity(self.caps)
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
        self, epoch: int
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Absorb one epoch: extend, (maybe) re-mine, diff, persist, alert.

        Returns ``(events, alerts fired now)``.  Everything durable —
        events, alerts, and the high-water-mark advance — lands in one
        exclusive section, or nothing does: when the ``current`` check
        fails there, or when another session already committed this
        epoch (the compare-and-set on ``mined_epoch``), the call raises
        :class:`MiningCancelled` and writes nothing.
        """
        if epoch != self.mined_epoch + 1:
            raise ValueError(
                f"epoch {epoch} out of order; next unmined is {self.mined_epoch + 1}"
            )
        timeline, series = load_batch(self.database, self.dataset.name, epoch)
        self.miner.extend(timeline, series)
        if self.miner.affected_components():
            caps_after = freeze(self.miner.mine().caps.documents())
            identities_after = caps_by_identity(caps_after)
            deltas = diff_caps(self.identities, identities_after)
        else:  # nothing re-mined, so nothing changed
            caps_after, identities_after, deltas = self.caps, self.identities, []
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
        now = self.clock()
        # Built and frozen outside the lock: the section only stages them.
        watermark = {"epoch": epoch, **self.miner.export_state()}
        stored_alerts = freeze(
            [stored_alert({**alert, "fired_at": now}) for alert in alerts]
        )
        stored_events = freeze(events)
        changes = freeze({
            "mined_epoch": epoch,
            "caps": caps_after,
            "next_seq": self.next_seq + len(events),
            "last_timestamp": timeline[-1].isoformat(),
            "updated_at": now,
            # The miner checkpoint rides the same atomic commit, so the
            # watermark can never run ahead of (or lag) the high-water
            # mark — the retention sweep may drop every batch at or below
            # it the moment this section lands.
            "watermark": watermark,
        })
        with self.database.exclusive():
            self._require_current()
            advanced = self.database.collection(STREAM_STATE).update_if(
                {"name": self.dataset.name}, {"mined_epoch": epoch - 1}, changes
            )
            if advanced is None:
                raise MiningCancelled(
                    f"epoch {epoch} of {self.dataset.name!r} was already "
                    f"committed by another session"
                )
            self.database.collection(CAP_EVENTS).insert_many(stored_events)
            self.database.collection(ALERTS).insert_many(stored_alerts)
        self.caps = caps_after
        self.identities = identities_after
        self.mined_epoch = epoch
        self.next_seq += len(events)
        for alert in alerts:
            record_fired(alert["rule_id"])
        update_lag(self.database, self.dataset)
        return events, alerts


def stream_runner(state: Any, job: Job):
    """The resident streaming miner's claimed execution (one drain).

    ``state`` is the server's ``ServerState``.  Replays the observation log
    to the persisted high-water mark, drains every pending epoch (extend →
    component-pruned re-mine → event diff → alert evaluation, each
    persisted atomically), renews its lease on a lease/3 beat while
    working, and once drained-and-idle *releases* the claim with a short
    retry gate and returns ``HANDLED`` — a claim loop re-claims it on its
    next beat, so residency never depends on this thread surviving.  A
    ``kill -9`` leaves a lapsed lease; the reclaimer's session resumes from
    the high-water mark with deterministic, insert-if-missing events — no
    losses, no duplicates.
    """

    def runner(control):
        from ..server.http import HTTPError  # repro.server imports this module

        store = state.jobs.store
        attempt = job.attempt
        try:
            dataset, _, still_current = state.current_dataset(job.dataset)
        except HTTPError:
            raise MiningCancelled(
                f"dataset {job.dataset!r} is gone; stream retired"
            ) from None
        session = StreamSession(
            state.database,
            dataset,
            MiningParameters.from_document(job.parameters),
            job.key,
            checkpoint=control.checkpoint,
            current=still_current,
        )

        lease = max(float(store.lease_seconds), 0.1)
        last_renewal = time.monotonic()
        idle_since: float | None = None
        while True:
            control.checkpoint()
            now = time.monotonic()
            if now - last_renewal >= lease / 3.0:
                store.renew_lease(job.job_id, attempt=attempt)
                current = store.get(job.job_id)
                if (
                    current is None
                    or current.state != RUNNING
                    or current.attempt != attempt
                ):
                    # Reclaimed from under us (lease lapsed under load);
                    # the newer claim owns the stream now.
                    raise MiningCancelled("stream claim lost")
                last_renewal = now
            pending = list(session.pending_epochs())
            if pending:
                for epoch in pending:
                    control.checkpoint()
                    session.process_epoch(epoch)
                    store.renew_lease(job.job_id, attempt=attempt)
                    last_renewal = time.monotonic()
                idle_since = None
                continue
            if idle_since is None:
                idle_since = now
            if now - idle_since >= _IDLE_SECONDS:
                store.release(job.job_id, attempt, retry_in=_POLL_SECONDS)
                return HANDLED
            time.sleep(0.05)

    return runner
