"""Lightweight phase profiling for the mining engine.

A :class:`Profiler` accumulates wall-time per named phase (``prepare`` /
``search`` / ``emit``) and per shard unit, threaded through
``MiningControl.profiler``.  The serial fast path never constructs a
control, so an un-profiled mine pays exactly nothing; a profiled shard
pays two ``perf_counter`` calls per phase.

The resulting document is persisted onto shard sub-job records by
``repro.jobs.distributed.complete_shard`` — the measured ground truth the
ROADMAP wants for calibrating ``estimate_seed_cost``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Profiler"]


class Profiler:
    """Accumulates per-phase and per-unit wall times (seconds)."""

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Per shard-unit measurements: tag -> {seconds, cost, caps}.
        self.units: list[dict[str, Any]] = []

    def record(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + float(seconds)
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - started)

    def record_unit(
        self, tag: str, seconds: float, cost: float | None = None, caps: int | None = None
    ) -> None:
        """One shard unit's measured wall time, next to its planned cost."""
        entry: dict[str, Any] = {"tag": tag, "seconds": float(seconds)}
        if cost is not None:
            entry["cost"] = float(cost)
        if caps is not None:
            entry["caps"] = int(caps)
        self.units.append(entry)

    def to_document(self) -> dict[str, Any]:
        """The JSON shape persisted on shard sub-job documents."""
        return {
            "phases": {
                name: {"seconds": seconds, "count": self.counts.get(name, 1)}
                for name, seconds in sorted(self.phases.items())
            },
            "units": list(self.units),
        }
