"""The database: named collections behind a crash-safe WAL store engine.

Plays the role MongoDB plays in the paper: one database holds the
``datasets`` collection (uploaded data, so "we can use the dataset without
re-uploading by specifying the dataset name") and the result cache's
collection (mining results keyed by dataset + parameters, owned by
:class:`repro.cache.ResultCache`).

Two engines share the :class:`Database` surface, chosen by ``path``:

* ``memory`` (no path) — collections live in this process only;
* ``wal`` (a path) — the store is one append-only log,
  ``<path>.wal/journal`` (see :mod:`repro.store.wal`).  Mutations stage
  their ops; the outermost :meth:`Database.exclusive` section commits
  them as one checksummed record with one ``write(2)`` and one fsync
  before its ``flock`` is released.  Opening replays the log, recovery
  truncates a torn tail, and several processes share the store through
  the ``flock`` plus tail replay.  A commit replays whole or not at all,
  so a crash never leaves part of a section behind.  Deletions are
  first-class tombstone ops, so a removal in one process is a removal
  everywhere.

A path opens only a v3 store, or creates one where there is none; any
other layout is refused untouched (:func:`repro.store.wal.check_format`)
until ``repro store upgrade`` rewrites it.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..obs.metrics import get_registry
from . import wal
from .collection import Collection

__all__ = ["Database"]

_log = logging.getLogger("repro.store")

_TORN_TRUNCATIONS = get_registry().counter(
    "repro_wal_torn_truncations_total",
    "Torn WAL tails truncated during recovery.",
)
_COMPACTION_SECONDS = get_registry().histogram(
    "repro_wal_compaction_seconds",
    "Duration of one store-log compaction rewrite.",
)

_LOCK_FILE = "LOCK"
_TMP_SUFFIX = ".compact-tmp"
#: Compaction and upgrades cut each collection's live state into records
#: of about this many payload bytes, far below ``wal.MAX_RECORD_BYTES``.
_STATE_RECORD_BYTES = 1 << 20


def collection_records(dump: Mapping[str, Any]) -> Iterator[Any]:
    """The live state of one collection (its :meth:`Collection.dump`) as a
    minimal op stream.

    What compaction and ``repro store upgrade`` write: index definitions
    first (so replay backfills into ready indexes), one ``put`` per live
    document, and a final ``next`` op pinning the id counter — tombstones
    and superseded versions are gone, which is the whole point.
    """
    for kind in ("hash", "sorted"):
        for path in dump["indexes"][kind]:
            yield ["index", path, kind]
    yield from dump["documents"]
    yield ["next", dump["next_id"]]


def _encode_state(dumps: Iterable[Mapping[str, Any]]) -> tuple[bytes, int]:
    """Live state (collection dumps) as v3 log bytes, plus the number of
    ops they hold.

    Each collection becomes a run of records, cut every
    ``_STATE_RECORD_BYTES`` of ops.  The payload is assembled from the
    ops' own JSON texts, byte-identical to :func:`wal.encode_record` of
    ``{name: ops}``.  A collection that never held anything (no
    document, index or burned id) is left out.
    """
    frames: list[bytes] = []
    count = 0
    for dump in dumps:
        records = list(collection_records(dump))
        if records == [["next", 1]]:
            continue
        head = b"{" + json.dumps(dump["name"]).encode() + b":["
        ops: list[bytes] = []
        size = 0
        for op in records:
            ops.append(json.dumps(op, separators=(",", ":")).encode("utf-8"))
            size += len(ops[-1])
            if size >= _STATE_RECORD_BYTES:
                frames.append(wal.frame(head + b",".join(ops) + b"]}"))
                ops, size = [], 0
        if ops:
            frames.append(wal.frame(head + b",".join(ops) + b"]}"))
        count += len(records)
    return b"".join(frames), count


@contextmanager
def store_lock(root: Path) -> Iterator[None]:
    """The store's cross-process ``flock`` on ``<root>/LOCK``."""
    with open(root / _LOCK_FILE, "a+") as handle:
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        yield  # closing the fd releases the flock


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _swap_in(target: Path, data: bytes) -> None:
    """Write ``data`` next to ``target``, atomically rename it over, and
    fsync the directory.

    The temp file is fsync'd *before* the rename — a crash at any point
    leaves either the old complete file or the new complete one, never a
    mix.
    """
    tmp = target.with_name(target.name + _TMP_SUFFIX)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        wal.write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, target)
    _fsync_dir(target.parent)


def _quarantine_tail(path: Path, torn: bytes, valid_end: int) -> None:
    """Preserve the bytes of a torn tail (the caller truncates them)."""
    sidecar = path.with_name(f"{path.name}.corrupt-{int(time.time() * 1000)}")
    sidecar.write_bytes(torn)
    _TORN_TRUNCATIONS.inc()
    _log.warning(
        "store: truncated torn tail of %s at byte %d (%d bad byte(s) "
        "quarantined to %s); recovered state is the fsync'd record "
        "prefix", path, valid_end, len(torn), sidecar,
    )


class Database:
    """A set of named collections, optionally bound to durable storage."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._collections: dict[str, Collection] = {}
        self.path = Path(path) if path is not None else None
        self._tlock = threading.RLock()
        self._lock_depth = 0
        self._log: wal.CollectionLog | None = None
        self._wal_root: Path | None = None
        #: Ops the open section journaled, grouped by collection in
        #: first-write order: the section's commit record.
        self._staged: dict[str, list[Any]] = {}
        self._after_commit: list[Callable[[], None]] = []
        if self.path is None:
            self.engine = "memory"
            return
        self.engine = "wal"
        self._wal_root = self.path.with_name(self.path.name + ".wal")
        # Refuse an older layout before creating anything.
        wal.check_format(self._wal_root, self.path)
        self._wal_root.mkdir(parents=True, exist_ok=True)
        # Open under the store lock: create a fresh store or clean
        # leftovers, replay the log, and truncate any torn tail a previous
        # crash left behind.
        with self.exclusive():
            pass

    def close(self) -> None:
        """Close the store log's file descriptor; idempotent.

        Whoever opens a store path for itself (a CLI command, ``repro store
        upgrade``, ``repro serve`` on exit) closes it, so reopening a store
        does not leak a descriptor per open.  The collections stay readable
        in memory; a later :meth:`exclusive` section reopens the log and
        replays it.
        """
        with self._tlock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- collection management ------------------------------------------------

    def _new_collection(self, name: str) -> Collection:
        collection = Collection(name)
        if self.engine == "wal":
            collection.bind_engine(
                guard=self.exclusive,
                journal=lambda op, _name=name: self._wal_append(_name, op),
            )
        return collection

    def collection(self, name: str) -> Collection:
        """Get (creating on first use) a collection — Mongo's ``db[name]``."""
        if name not in self._collections:
            self._collections[name] = self._new_collection(name)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __iter__(self) -> Iterator[str]:
        return iter(self._collections)

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def drop_collection(self, name: str) -> bool:
        """Remove a collection entirely; returns whether it existed.

        Journaled as a ``["drop"]`` op, so every peer's replay drops it too.
        """
        with self.exclusive():
            existed = self._collections.pop(name, None) is not None
            if existed and self.engine == "wal":
                self._wal_append(name, ["drop"])
            return existed

    def stats(self) -> dict[str, Any]:
        """Document counts per collection (the admin endpoint's payload),
        plus the store log's counters when this store journals."""
        payload: dict[str, Any] = {
            "collections": {
                name: len(collection)
                for name, collection in sorted(self._collections.items())
            },
            "path": str(self.path) if self.path else None,
            "engine": self.engine,
        }
        if self.engine == "wal":
            log = self._log
            assert log is not None
            payload["wal"] = {
                # By path, not fd: this runs without the lock, while a
                # compaction may be swapping the fd.
                "log_bytes": os.stat(log.path).st_size,
                "records": log.records,
                "live_documents": sum(payload["collections"].values()),
                "compactions": log.compactions,
            }
        return payload

    # -- WAL engine: locking, commit, replay, recovery ---------------------------

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """The store's cross-process critical section and its one commit.

        WAL engine: process-local reentrant lock + ``flock`` on
        ``<root>/LOCK``; entry replays peers' commits (so a mutation
        always starts from the shared present — id assignment and
        ``update_if`` CAS decisions are then correct across processes),
        and exit writes every op the section staged as one record and
        fsyncs it before the lock releases — so an acknowledged section is
        durable whole.  A section that raises still commits what it
        already applied in memory; only a crash drops it.  After a section
        that completes, its :meth:`after_commit` callbacks run.  Memory
        engine: the process lock only.

        Reentrant: nested sections piggyback on the outer one (``flock``
        self-deadlocks across fds of one process otherwise) and share its
        single commit.
        """
        with self._tlock:
            if self.engine != "wal":
                yield
                return
            if self._lock_depth > 0:
                self._lock_depth += 1
                try:
                    yield
                finally:
                    self._lock_depth -= 1
                return
            assert self._wal_root is not None
            try:
                with store_lock(self._wal_root):
                    self._lock_depth = 1
                    try:
                        if self._log is None:
                            self._wal_open_locked()
                        self._wal_refresh(truncate_torn=True)
                        yield
                    finally:
                        self._lock_depth = 0
                        self._wal_sync()
            finally:
                callbacks, self._after_commit = self._after_commit, []
            for callback in callbacks:
                callback()

    def after_commit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the open section has committed and
        released the lock (not at all if the section raises).

        Outside a WAL section (or on the memory engine) it runs at once.
        The job registry's ``after-*`` crash points use it: a kill named
        after a persisted transition lands after that transition's commit.
        """
        with self._tlock:
            if self._lock_depth == 0:
                callback()
            else:
                self._after_commit.append(callback)

    def refresh(self) -> None:
        """Adopt commits other processes appended since the last look.

        Cheap when nothing changed (one ``stat`` of the log).  Lock-free:
        a commit being written right now simply decodes short and is
        retried on the next refresh — torn-tail truncation only happens
        inside :meth:`exclusive`, where no live writer can exist.
        """
        if self.engine != "wal":
            return
        with self._tlock:
            if self._lock_depth > 0 or self._log is None:
                return  # inside exclusive: entry already refreshed; or closed
            self._wal_refresh(truncate_torn=False)

    def _wal_open_locked(self) -> None:
        """First-open work under the lock: create the store if there is
        none, drop leftovers, open the log; any other layout raises."""
        root = self._wal_root
        assert root is not None and self.path is not None
        if not wal.check_format(root, self.path):
            # The marker's swap makes the empty log durable too.
            (root / wal.LOG_NAME).write_bytes(b"")
            _swap_in(root / wal.FORMAT_MARKER, (wal.FORMAT_V3 + "\n").encode())
        # The temp file of a killed compaction: the log it would have
        # replaced is complete.
        for entry in os.listdir(root):
            if entry.endswith(_TMP_SUFFIX):
                (root / entry).unlink()
        self._log = wal.CollectionLog(root / wal.LOG_NAME)

    def _apply(self, record: Mapping[str, Any]) -> int:
        """Apply one commit record whole; returns how many ops it held."""
        applied = 0
        for name, ops in record.items():
            for op in ops:
                if op == ["drop"]:
                    self._collections.pop(name, None)
                else:
                    self.collection(name).apply_wal_record(op)
            applied += len(ops)
        return applied

    def _wal_refresh(self, truncate_torn: bool) -> None:
        log = self._log
        assert log is not None
        try:
            stat = os.stat(log.path)
        except FileNotFoundError:  # pragma: no cover - root deleted underneath
            return
        replayed: set[str] | None = None
        if stat.st_ino != log.inode or stat.st_size < log.applied_offset:
            # A peer compacted: replay the fresh log from zero.
            log.reopen()
            for collection in self._collections.values():
                collection.reset_state()
            replayed = set()
            stat = os.fstat(log.fd)
        if stat.st_size > log.applied_offset:
            tail = log.read_tail(stat.st_size)
            valid = 0
            for record, valid in wal.iter_records(tail):
                log.records += self._apply(record)
                if replayed is not None:
                    replayed.update(record)
            log.applied_offset += valid
            if valid < len(tail) and truncate_torn:
                # A crash landed mid-commit: keep then drop the tail.
                _quarantine_tail(log.path, tail[valid:], log.applied_offset)
                log.truncate_to(log.applied_offset)
        if replayed is not None:
            # A collection the fresh log never names was dropped (or never
            # held anything): a fresh open would not have it either.
            for name in set(self._collections) - replayed:
                del self._collections[name]

    def _wal_append(self, name: str, op: Any) -> None:
        """Stage one op for the open section's commit.

        The ``mid-section`` crash point, scoped by those two collections,
        fires when a section first stages ops for a second collection,
        before anything of it is written.
        """
        assert self.engine == "wal"
        assert self._lock_depth > 0, "WAL appends require Database.exclusive()"
        ops = self._staged.get(name)
        if ops is None:
            ops = self._staged[name] = []
            if len(self._staged) == 2:
                wal.maybe_fault("mid-section", tuple(self._staged))
        ops.append(op)

    def _wal_sync(self) -> None:
        """Write the staged ops as one record and fsync it."""
        staged, self._staged = self._staged, {}
        if staged:
            assert self._log is not None
            self._log.append(staged)
            self._log.sync()

    def compact(self, min_ratio: float = 0.0) -> dict[str, Any]:
        """Rewrite the store log to its live state, atomically.

        Writers wait only for the swap, not the rewrite.  Under the lock,
        the live state is snapshotted (frozen documents, so a shallow
        dump) at the log's current end.  Outside it, the snapshot is
        encoded into a temp file, which is fsync'd.  Under the lock again,
        the commits made meanwhile are copied byte for byte onto the temp
        file, which is fsync'd and renamed over the log.  Crash-safe at
        any point: the old log stays intact until the rename (the
        ``mid-compaction-swap`` crash point fires just before it), and
        peers detect the inode change and replay the fresh log.  A peer
        compacting in between abandons this rewrite.

        With ``min_ratio`` the rewrite is kept only when the log is at
        least that many times the size of the live state it encodes, so
        a caller can ask "compact if it pays".  Returns the log's size
        before and the encoded live state's size, swapped in or not.
        """
        if self.engine != "wal":
            return {"before_bytes": 0, "after_bytes": 0, "compacted": False}
        started = time.perf_counter()
        with self.exclusive():
            log = self._log
            assert log is not None and self._wal_root is not None
            before = os.fstat(log.fd).st_size
            inode, offset, ops = log.inode, log.applied_offset, log.records
            dumps = [self._collections[name].dump()
                     for name in sorted(self._collections)]
        data, records = _encode_state(dumps)
        result = {"before_bytes": before, "after_bytes": len(data),
                  "compacted": False}
        if before < min_ratio * len(data):
            return result
        tmp = log.path.with_name(
            f"{log.path.name}.{os.getpid()}-{os.urandom(4).hex()}{_TMP_SUFFIX}"
        )
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            wal.write_all(fd, data)
            os.fsync(fd)
            with self.exclusive():
                # A peer swapped in its own rewrite, or a peer's first open
                # swept this temp file as a leftover: abandon this one.
                if log.inode != inode or os.fstat(fd).st_nlink == 0:
                    return result
                tail = os.pread(log.fd, log.applied_offset - offset, offset)
                wal.write_all(fd, tail)
                os.fsync(fd)
                wal.maybe_fault("mid-compaction-swap")
                os.replace(tmp, log.path)
                result["compacted"] = True
                _fsync_dir(self._wal_root)
                # Nested in a section: the snapshot already holds what it
                # staged.
                self._staged.clear()
                log.adopt(len(data) + len(tail), records + log.records - ops)
        finally:
            os.close(fd)
            if not result["compacted"]:
                tmp.unlink(missing_ok=True)
        _COMPACTION_SECONDS.observe(time.perf_counter() - started)
        return result

    @classmethod
    def open(cls, path: str | Path) -> "Database":
        """Open (or create) a persistent database at ``path``."""
        return cls(path=path)
