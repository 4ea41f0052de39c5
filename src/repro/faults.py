"""Deterministic crash points for the ``kill -9`` matrices.

An environment variable names one crash point as ``point[@scope][:nth]``;
the process hard-exits (``os._exit``) at the nth hit of that point whose
scope matches, exactly like ``kill -9`` landing there.  The job registry
(``REPRO_JOBS_FAULT``, unscoped, exit 70), the store
(``REPRO_STORE_FAULT``, scoped by collection, exit 71) and stream retention
(``REPRO_STREAM_FAULT``, scoped by dataset, exit 72) each own one
:class:`CrashPoints`; unset, every check is a no-op.
"""

from __future__ import annotations

import os

__all__ = ["CrashPoints"]


class CrashPoints:
    """The crash points one environment variable can arm."""

    def __init__(self, env: str, exit_code: int) -> None:
        self.env = env
        self.exit_code = exit_code
        self._hits: dict[str, int] = {}

    def _spec(self) -> tuple[str, str | None, int] | None:
        """Parse the variable into (point, scope, nth)."""
        raw = os.environ.get(self.env)
        if not raw:
            return None
        point, _, nth_part = raw.partition(":")
        point, _, scope = point.partition("@")
        try:
            nth = int(nth_part) if nth_part else 1
        except ValueError:
            nth = 1
        return point, (scope or None), nth

    def armed(self, point: str, scope: str | None = None) -> bool:
        """True when this call is the configured crash occurrence.

        Counts matching hits so ``:<nth>`` specs can skip past setup writes
        (index creation on a fresh store appends records too).
        """
        spec = self._spec()
        if spec is None:
            return False
        want_point, want_scope, nth = spec
        if want_point != point:
            return False
        if want_scope is not None and scope is not None and want_scope != scope:
            return False
        key = f"{want_point}@{want_scope or '*'}"
        self._hits[key] = self._hits.get(key, 0) + 1
        return self._hits[key] == nth

    def maybe_fault(self, point: str, scope: str | None = None) -> None:
        """Hard-exit at an armed crash point — a ``kill -9`` landing here."""
        if self.armed(point, scope):
            os._exit(self.exit_code)
