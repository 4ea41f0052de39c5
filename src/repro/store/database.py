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

Older layouts migrate once, on open, in one step
(:meth:`Database._migrate`): v2 per-collection segments (``<name>.seg``),
v1 logs (``<name>.log``, CRC-32C) and a legacy ``repro-store-v1`` JSON
snapshot are read into memory and written as the v3 log before the
``FORMAT`` marker flips.  A marker this code does not know refuses to
open.  The snapshot file is left byte-untouched until the first
compaction archives it (``<path>.pre-wal``); the snapshot format survives
otherwise only as the export format (:meth:`Database.save`).  A snapshot
that fails to parse is quarantined (``<name>.corrupt-<ts>``) with a
structured warning instead of refusing to start.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping
from urllib.parse import unquote

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

#: Marker recording that the log was migrated from a legacy snapshot (and
#: that the snapshot must survive until the first compaction).
_MIGRATED_MARKER = "MIGRATED"
_LOCK_FILE = "LOCK"
_TMP_SUFFIX = ".compact-tmp"
#: Compaction and migration cut each collection's live state into records
#: of about this many payload bytes, far below ``wal.MAX_RECORD_BYTES``.
_STATE_RECORD_BYTES = 1 << 20


def collection_records(dump: Mapping[str, Any]) -> Iterator[Any]:
    """The live state of one collection (its :meth:`Collection.dump`) as a
    minimal op stream.

    What migration and compaction write: index definitions first (so
    replay backfills into ready indexes), one ``put`` per live document,
    and a final ``next`` op pinning the id counter — tombstones and
    superseded versions are gone, which is the whole point.
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


def _v2_op(record: Mapping[str, Any]) -> Any:
    """A v1/v2 record (``{"op": ..., ...}``) as a v3 op (migration only)."""
    op = record.get("op")
    if op == "put":
        return record["doc"]
    if op == "del":
        return ["del", record.get("ids", [])]
    if op == "index":
        return ["index", record["path"], record["kind"]]
    if op == "next":
        return ["next", record["value"]]
    return [op]  # "clear", or an op this code skips


def _read_segment(path: Path, fmt: str) -> Collection:
    """One v1 log or v2 segment replayed into a collection (migration only).

    A torn tail is quarantined and truncated exactly as replay does.
    """
    data = path.read_bytes()
    records, valid_end, torn = wal.decode_records(
        data, checksum=wal.format_checksum(fmt)
    )
    if torn:
        _quarantine_tail(path, data[valid_end:], valid_end)
        os.truncate(path, valid_end)
    collection = Collection(unquote(path.name[: -len(wal.SEGMENT_SUFFIXES[fmt])]))
    for record in records:
        collection.apply_wal_record(_v2_op(record))
    return collection


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
        self._wal_root.mkdir(parents=True, exist_ok=True)
        # Open under the store lock: migrate an older layout if one is
        # present, clean leftovers, replay the log, and truncate any torn
        # tail a previous crash left behind.
        with self.exclusive():
            pass

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
            handle = open(self._wal_root / _LOCK_FILE, "a+")
            try:
                try:
                    import fcntl

                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                except ImportError:  # pragma: no cover - non-POSIX fallback
                    pass
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
                handle.close()  # closing the fd releases the flock
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
            if self._lock_depth > 0:
                return  # inside exclusive: entry already refreshed
            self._wal_refresh(truncate_torn=False)

    def _wal_open_locked(self) -> None:
        """First-open work under the lock: migrate an older layout, drop
        leftovers, open the log; an unknown ``FORMAT`` marker raises."""
        root = self._wal_root
        assert root is not None
        found = wal.read_format(root)
        if found != wal.FORMAT_V3:
            self._migrate(found)
        # Files a killed migration never unlinked, and the temp file of a
        # killed compaction: the log they would have replaced is complete.
        for entry in os.listdir(root):
            if entry.endswith((*wal.SEGMENT_SUFFIXES.values(), _TMP_SUFFIX)):
                (root / entry).unlink()
        self._log = wal.CollectionLog(root / wal.LOG_NAME)

    def _migrate(self, found: str | None) -> None:
        """Rewrite an older store as the v3 log, once (under the flock).

        Reads everything the older layouts hold, in one step: v2 segments
        (``<name>.seg``), v1 logs (``<name>.log``, verified with CRC-32C;
        a segment beside its v1 log is a finished v1 → v2 rewrite whose
        unlink was lost, so the segment wins), and, only when there is no
        ``FORMAT`` marker at all, the legacy snapshot at ``path``, whose
        collections replace same-named segments as the v2 import did.
        Then: swap the v3 log in, write ``MIGRATED`` if a snapshot was
        imported, flip the marker, unlink the old files.  A kill before
        the flip leaves every source and the old marker intact, so the
        next open migrates again; a kill after it leaves old files that
        every v3 open deletes.  ``mid-format-migration`` fires just before
        the flip and before each old file's unlink.
        """
        root = self._wal_root
        assert root is not None and self.path is not None
        collections: dict[str, Collection] = {}
        sources: list[Path] = []
        for fmt in (wal.FORMAT_V2, wal.FORMAT_V1):
            suffix = wal.SEGMENT_SUFFIXES[fmt]
            for source in sorted(root.glob("*" + suffix)):
                sources.append(source)
                if unquote(source.name[: -len(suffix)]) not in collections:
                    collection = _read_segment(source, fmt)
                    collections[collection.name] = collection
        imported = 0
        if found is None and self.path.exists():
            for collection in self._read_snapshot(self.path):
                collections[collection.name] = collection
                imported += 1
        data, _ = _encode_state(
            collections[name].dump() for name in sorted(collections)
        )
        if data:
            _swap_in(root / wal.LOG_NAME, data)
        else:  # nothing to carry over: the marker's swap makes the file durable
            (root / wal.LOG_NAME).write_bytes(b"")
        if imported:
            (root / _MIGRATED_MARKER).write_text(self.path.name + "\n")
        wal.maybe_fault("mid-format-migration")
        _swap_in(root / wal.FORMAT_MARKER, (wal.FORMAT_V3 + "\n").encode())
        for source in sources:
            wal.maybe_fault("mid-format-migration")
            source.unlink()
        if sources or imported:
            _fsync_dir(root)
            _log.warning(
                "store: migrated %s under %s to %s (%d collection(s)%s)",
                found or "a legacy snapshot", root, wal.FORMAT_V3,
                len(collections),
                "; snapshot kept until the first compaction" if imported else "",
            )

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
        a caller can ask "compact if it pays".  The first compaction after
        a snapshot import archives the snapshot: it is renamed to
        ``<path>.pre-wal`` (never deleted).  Returns the log's size before
        and the encoded live state's size, swapped in or not.
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
                self._archive_snapshot()
        finally:
            os.close(fd)
            if not result["compacted"]:
                tmp.unlink(missing_ok=True)
        _COMPACTION_SECONDS.observe(time.perf_counter() - started)
        return result

    def _archive_snapshot(self) -> None:
        """Rename an imported legacy snapshot to ``<path>.pre-wal`` once
        the first compaction made the log self-sufficient."""
        assert self._wal_root is not None and self.path is not None
        marker = self._wal_root / _MIGRATED_MARKER
        if not marker.exists():
            return
        if self.path.exists():
            archived = self.path.with_name(self.path.name + ".pre-wal")
            os.replace(self.path, archived)
            _log.warning(
                "store: archived migrated legacy snapshot to %s after the "
                "first compaction", archived,
            )
        marker.unlink()
        _fsync_dir(self._wal_root)

    # -- persistence (legacy snapshot format; export + migration) ---------------

    def save(self, path: str | Path | None = None) -> Path:
        """Export a JSON snapshot atomically *and durably*; returns the path.

        A pure export: the WAL engine needs no snapshot for durability
        (every section's commit is fsync'd), and saving a memory database
        does not bind it to ``path``.  A snapshot at a store path with no
        WAL beside it is imported on first open.  The temp file is fsync'd
        before the rename and the directory after it, so the snapshot
        survives power loss, not just process death.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no snapshot path: pass one or construct Database(path=...)")
        snapshot = {
            "format": "repro-store-v1",
            "collections": [c.dump() for c in self._collections.values()],
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(snapshot, handle, separators=(",", ":"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, target)
            _fsync_dir(target.parent)
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:
                pass
            raise
        return target

    def _read_snapshot(self, path: Path) -> list[Collection]:
        """Load a legacy snapshot's collections, quarantining parse failures.

        A snapshot that cannot be *parsed* is moved aside
        (``<name>.corrupt-<ts>``) with a warning and the store starts from
        scratch — a corrupt file must not brick startup.  A snapshot that
        parses but declares an unknown format still raises: it may belong
        to a newer version and silently quarantining it would destroy data
        a newer binary could read.
        """
        try:
            with open(path) as handle:
                snapshot = json.load(handle)
            if not isinstance(snapshot, dict):
                raise json.JSONDecodeError("not an object", "", 0)
        except (json.JSONDecodeError, UnicodeDecodeError):
            quarantined = path.with_name(
                f"{path.name}.corrupt-{int(time.time() * 1000)}"
            )
            os.replace(path, quarantined)
            _log.warning(
                "store: snapshot %s failed to parse; quarantined to %s and "
                "starting from the last good state", path, quarantined,
            )
            return []
        if snapshot.get("format") != "repro-store-v1":
            raise ValueError(
                f"unrecognised snapshot format in {path}: {snapshot.get('format')!r}"
            )
        return [
            Collection.load(dump) for dump in snapshot.get("collections", [])
        ]

    @classmethod
    def open(cls, path: str | Path) -> "Database":
        """Open (or create) a persistent database at ``path``."""
        return cls(path=path)
