"""Background compaction for the WAL store engine.

A long-lived store accretes log records: every progress tick, lease
renewal, and requeue commits one, while the *live* state stays small.
Compaction rewrites the store's one log to its current state and
atomically swaps it in (see :meth:`Database.compact` for the crash-safety
argument: the new log is fsync'd before the ``rename``, so a crash at any
point leaves either the old complete log or the new complete one).

The rewrite costs the whole live state, datasets and cached results
included, whatever churned.  So :class:`CompactionThread` runs it only
when the dead bytes have caught up with the live ones — the log is at
least :data:`GROWTH` times its live state — and every byte rewritten
pays for at least one dead byte dropped.  Between rewrites a sweep is
one ``stat`` of the log.  The server wires one up per process behind
``--compact-seconds``; ``repro store compact`` compacts once, offline.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Sequence

from .database import Database

__all__ = ["CompactionThread", "needs_compaction"]

_log = logging.getLogger("repro.store")

#: Never compact a log shorter than this — the rewrite would cost more
#: than the replay it saves.
MIN_BYTES = 1 << 20

#: Compact when the log is at least this many times its live state: the
#: dead bytes then at least match the live bytes the rewrite copies.
GROWTH = 2.0


def needs_compaction(
    log_bytes: int,
    live_bytes: int,
    *,
    min_bytes: int = MIN_BYTES,
) -> bool:
    """The lazy trigger: a long log, mostly dead weight.

    ``live_bytes`` is the live state's size as last measured (0 when
    unknown: a long enough log then gets measured by a rewrite attempt).
    """
    return log_bytes >= max(min_bytes, GROWTH * live_bytes)


class CompactionThread:
    """Periodically compact one database's over-grown store log.

    Daemonised and event-driven: :meth:`stop` wakes the timer immediately,
    so shutdown never waits out the interval.  Compaction errors are
    logged and swallowed — a failed sweep leaves the (valid, just long)
    old log in place, and the next interval retries.
    """

    def __init__(
        self,
        database: Database,
        interval_seconds: float = 30.0,
        *,
        min_bytes: int = MIN_BYTES,
        extra_sweep: Callable[[], Sequence[dict[str, object]]] | None = None,
    ) -> None:
        self.database = database
        self.interval_seconds = interval_seconds
        self.min_bytes = min_bytes
        #: The live state's size at the last rewrite attempt.
        self.live_bytes = 0
        #: Optional piggybacked sweep (e.g. the stream retention pass) run
        #: on the same cadence; its results join the sweep report, its
        #: failures are logged and swallowed like log-compaction ones.
        self.extra_sweep = extra_sweep
        self.sweeps = 0
        self.compacted = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-store-compactor", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        if wait and self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.sweep()
            except Exception:  # pragma: no cover - defensive
                _log.exception("store compaction sweep failed")

    def sweep(self) -> list[dict[str, object]]:
        """One pass: compact the store log if it is past the threshold."""
        self.sweeps += 1
        results: list[dict[str, object]] = []
        if self.extra_sweep is not None:
            try:
                results.extend(self.extra_sweep())
            except Exception:  # pragma: no cover - defensive
                _log.exception("piggybacked compaction sweep failed")
        wal_stats = self.database.stats().get("wal")
        if wal_stats and needs_compaction(
            wal_stats["log_bytes"], self.live_bytes, min_bytes=self.min_bytes
        ):
            result = self.database.compact(min_ratio=GROWTH)
            self.live_bytes = result["after_bytes"]
            if result["compacted"]:
                self.compacted += 1
                _log.info(
                    "compacted the store log: %d -> %d bytes",
                    result["before_bytes"],
                    result["after_bytes"],
                )
                results.append(result)
        return results
