"""Whole mines in a worker process, so claim threads stop sharing one GIL.

A whole-mine job's CPU body, :func:`mine_columns` (``MiscelaMiner(params)
.mine(dataset)`` plus :meth:`ResultCache.encode
<repro.cache.cache.ResultCache.encode>`), runs in a
:class:`MineProcess`: one worker process per claim-loop thread
(:class:`~repro.jobs.executor.ClaimLoop`), started on that thread's first
whole mine and stopped when its loop stops.  The claim thread ships
``(body, dataset, params)`` down a pipe and relays while it waits: the
worker's per-unit progress ticks go to the job's control (at each
wake-up only the newest tick of those that arrived is reported, so a
many-unit mine commits a handful of progress records, not one per unit),
and the job's cancellation flag is polled and forwarded, stopping the
worker's run at its next checkpoint.  The reply is the ``"encoding": 2``
result document, which the claim thread stores.

Workers start with the ``forkserver`` method, never ``fork``: a fork of
the threaded server copies every lock another thread holds at that moment
(the store's, logging's) into a child that can never release it.  The
fork server preloads this module when it can import it, so a worker
starts with the miner imported.  A new worker reports ready before its
first job; one silent for :data:`START_TIMEOUT_SECONDS` is killed and
fails the job (every forkserver child imports the program's main module
first, which blocks for good if that module starts a server outside an
``if __name__ == "__main__":`` guard).

A worker is not a daemon process: with ``n_jobs`` > 1 the engine forks its
pool from inside the worker (a single-threaded process, where fork is
safe), and daemonic processes may not have children.  So that no worker
blocks interpreter exit, each registers a finalizer that stops it before
:mod:`multiprocessing` joins its children at exit.  A worker whose server
died (``kill -9``) reads end-of-file on its pipe at its next wait or
checkpoint and exits.  A worker that dies mid-run fails its job with a
:class:`WorkerDied` error; the next whole mine starts a fresh worker.
"""

from __future__ import annotations

import multiprocessing
import signal
from multiprocessing import util
from multiprocessing.connection import wait
from typing import Any

from ..cache.cache import ResultCache
from ..core.miner import MiscelaMiner
from ..core.parallel import MiningCancelled, MiningControl
from ..core.parameters import MiningParameters
from ..core.types import SensorDataset

__all__ = ["MineProcess", "WorkerDied", "mine_columns"]

#: Seconds between cancellation polls while the worker sends nothing.
CANCEL_POLL_SECONDS = 0.05

#: Seconds a stopping worker gets to exit on its own before it is killed.
STOP_GRACE_SECONDS = 2.0

#: Seconds a new worker gets to report ready.
START_TIMEOUT_SECONDS = 60.0


class WorkerDied(RuntimeError):
    """The worker process died mid-run, or never reported ready."""


def mine_columns(
    dataset: SensorDataset, params: MiningParameters, control: MiningControl
) -> dict[str, Any]:
    """A whole mine's CPU body: the four steps, then the stored layout."""
    return ResultCache.encode(MiscelaMiner(params).mine(dataset, control=control))


class MineProcess:
    """One claim-loop thread's worker process for whole mines.

    Only the owning thread calls :meth:`mine` and :meth:`stop`.  The
    process starts on the first :meth:`mine`; after :meth:`stop` (or a
    death) the next :meth:`mine` starts a new one.
    """

    def __init__(self, name: str = "mine-worker") -> None:
        self.name = name
        self._process: Any = None
        self._conn: Any = None
        self._finalizer: util.Finalize | None = None

    @property
    def pid(self) -> int | None:
        """The live worker's process id, or None before a start."""
        return None if self._process is None else self._process.pid

    def mine(
        self, dataset: SensorDataset, params: MiningParameters, control: MiningControl
    ) -> dict[str, Any]:
        """Mine ``dataset`` in the worker; returns the columnar result.

        Progress goes to ``control.report`` and ``control.should_cancel`` is
        polled at every wake-up; a cancelled run raises
        :class:`MiningCancelled` once the worker reached its checkpoint.
        """
        process, conn = self._start()
        busy = True
        try:
            _send(process, conn, (mine_columns, dataset, params))
            cancel_sent = False
            while True:
                wait([conn, process.sentinel], timeout=CANCEL_POLL_SECONDS)
                tick, reply = _drain(conn)
                if tick is not None:
                    control.report(*tick)
                if reply is not None and reply[0] != "gone":
                    busy = False
                    kind, payload = reply
                    if kind == "done":
                        return payload
                    if kind == "cancelled":
                        raise MiningCancelled(payload)
                    raise payload
                cancelled = control.should_cancel is not None and control.should_cancel()
                if reply is not None or not process.is_alive():
                    if cancelled:
                        raise MiningCancelled("mining run cancelled by its controller")
                    process.join(STOP_GRACE_SECONDS)
                    raise WorkerDied(
                        f"mining worker process {process.pid} died mid-run "
                        f"({_exit_reason(process.exitcode)})"
                    )
                if cancelled and not cancel_sent:
                    _send(process, conn, None)
                    cancel_sent = True
        finally:
            if busy:
                self.stop()

    def stop(self) -> None:
        """Stop the worker (if any) and wait for it to exit."""
        finalizer, self._finalizer = self._finalizer, None
        self._process = self._conn = None
        if finalizer is not None:
            finalizer()

    def _start(self) -> tuple[Any, Any]:
        if self._process is not None and not self._process.is_alive():
            self.stop()  # died while idle
        if self._process is None:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload([__name__])
            conn, child = context.Pipe()
            process = context.Process(
                target=_serve, args=(child,), name=self.name, daemon=False
            )
            try:
                process.start()
            finally:
                child.close()
            answered = wait([conn, process.sentinel], START_TIMEOUT_SECONDS)
            if not answered or _drain(conn)[1] != ("ready", None):
                _stop_process(process, conn)
                reason = (
                    _exit_reason(process.exitcode) if answered
                    else f"silent for {START_TIMEOUT_SECONDS:.0f}s; a main module "
                    f"that opens an app must do so under if __name__ == '__main__'"
                )
                raise WorkerDied(
                    f"mining worker process {process.pid} did not start ({reason})"
                )
            self._process, self._conn = process, conn
            # Runs on stop(), on garbage collection, or at interpreter exit
            # before multiprocessing joins its non-daemon children.
            self._finalizer = util.Finalize(
                self, _stop_process, args=(process, conn), exitpriority=10
            )
        return self._process, self._conn


def _send(process, conn, message) -> None:
    try:
        conn.send(message)
    except OSError as exc:
        raise WorkerDied(f"mining worker process {process.pid} is gone: {exc}") from exc


def _drain(conn) -> tuple[tuple[int, int] | None, tuple[str, Any] | None]:
    """The newest tick the worker sent so far, and its reply if it sent
    one (``("gone", None)`` at end-of-file: the worker died)."""
    tick = None
    try:
        while conn.poll():
            message = conn.recv()
            if message[0] != "tick":
                return tick, message
            tick = message[1:]
    except (EOFError, OSError):
        return tick, ("gone", None)
    return tick, None


def _exit_reason(code: int | None) -> str:
    if code is not None and code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exit code {code}"


def _stop_process(process, conn) -> None:
    """Close the pipe (the worker exits at end-of-file), then reap it."""
    conn.close()
    process.join(STOP_GRACE_SECONDS)
    if process.is_alive():
        process.kill()
        process.join()


# -- the worker side ------------------------------------------------------------


def _serve(conn) -> None:
    """The worker's loop: one ``(body, dataset, params)`` job at a time.

    Mid-run the only message the server sends is a cancel (``None``); one
    that arrives after its run ended is skipped here.  End-of-file on the
    pipe (the server stopped this worker, or died) ends the loop.
    """
    # A terminal's Ctrl-C reaches the whole process group; the server
    # decides how its jobs end, so the worker ignores it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(("ready", None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            continue
        body, dataset, params = message
        cancelled = False

        def should_cancel() -> bool:
            nonlocal cancelled
            if not cancelled and conn.poll():
                conn.recv()  # a cancel; end-of-file raises and ends the run
                cancelled = True
            return cancelled

        control = MiningControl(
            progress=lambda done, total: conn.send(("tick", done, total)),
            should_cancel=should_cancel,
        )
        try:
            reply: tuple[str, Any] = ("done", body(dataset, params, control))
        except MiningCancelled as exc:
            reply = ("cancelled", str(exc))
        except (EOFError, BrokenPipeError, ConnectionResetError):
            return
        except Exception as exc:  # noqa: BLE001 - the server records it
            reply = ("error", exc)
        try:
            conn.send(reply)
        except (EOFError, BrokenPipeError, ConnectionResetError):
            return
        except Exception:  # an error that does not pickle: send its text
            error = reply[1]
            conn.send(("error", RuntimeError(f"{type(error).__name__}: {error}")))
