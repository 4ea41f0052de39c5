"""The database: named collections behind a crash-safe WAL store engine.

Plays the role MongoDB plays in the paper: one database holds the
``datasets`` collection (uploaded data, so "we can use the dataset without
re-uploading by specifying the dataset name") and the result cache's
collection (mining results keyed by dataset + parameters, owned by
:class:`repro.cache.ResultCache`).

Two engines share the :class:`Database` surface, chosen by ``path``:

* ``memory`` (no path) — collections live in this process only;
* ``wal`` (a path) — every mutation appends one checksummed record to a
  per-collection append-only segment under ``<path>.wal/`` (see
  :mod:`repro.store.wal`); opening replays the segments, recovery
  truncates torn tails, and several processes share the store through one
  ``flock`` + tail replay.  Deletions are first-class tombstone records,
  so a removal in one process is a removal everywhere.

A directory still in the v1 record format (``<name>.log`` logs checksummed
with CRC-32C) is verified and rewritten as v2 (``<name>.seg``) once, on
open; a ``FORMAT`` marker this code does not know refuses to open.

The whole-database JSON snapshot (``repro-store-v1``) survives only as
the export format (:meth:`Database.save`) and as a one-shot import.
A legacy ``repro-store-v1`` snapshot at ``path`` is migrated to WAL
segments on first open; the original file is left byte-untouched until
the first successful full compaction archives it (``<path>.pre-wal``).
A snapshot or log that fails to parse is quarantined
(``<name>.corrupt-<ts>``) with a structured warning instead of refusing
to start — the store comes up with exactly the last good state.
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
from typing import Any, Iterable, Iterator, Mapping
from urllib.parse import quote, unquote

from ..obs.metrics import get_registry
from . import wal
from .collection import Collection

__all__ = ["Database"]

_log = logging.getLogger("repro.store")

_TORN_TRUNCATIONS = get_registry().counter(
    "repro_wal_torn_truncations_total",
    "Torn WAL tails truncated during recovery, by collection.",
    ("collection",),
)
_COMPACTION_SECONDS = get_registry().histogram(
    "repro_wal_compaction_seconds",
    "Duration of one collection-log compaction rewrite.",
    ("collection",),
)

#: The record format this code writes (the directory's ``FORMAT`` marker).
_FORMAT_VALUE = wal.FORMAT_V2
#: Marker recording that the segments were migrated from a legacy snapshot
#: (and that the snapshot must survive until the first full compaction).
_MIGRATED_MARKER = "MIGRATED"
_LOCK_FILE = "LOCK"
_SEGMENT_SUFFIX = wal.SEGMENT_SUFFIXES[_FORMAT_VALUE]
_TMP_SUFFIX = ".compact-tmp"


def _encode_name(name: str) -> str:
    """Collection name -> log file stem (filesystem-safe, reversible)."""
    return quote(name, safe="abcdefghijklmnopqrstuvwxyz"
                            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _decode_name(stem: str) -> str:
    return unquote(stem)


def collection_records(collection: Collection) -> Iterator[dict[str, Any]]:
    """The live state of one collection as a minimal record stream.

    What migration and compaction write: index definitions first (so
    replay backfills into ready indexes), one ``put`` per live document,
    and a final ``next`` record pinning the id counter — tombstones and
    superseded versions are gone, which is the whole point.
    """
    dump = collection.dump()
    for path in dump["indexes"]["hash"]:
        yield {"op": "index", "path": path, "kind": "hash"}
    for path in dump["indexes"]["sorted"]:
        yield {"op": "index", "path": path, "kind": "sorted"}
    for document in dump["documents"]:
        yield {"op": "put", "doc": document}
    yield {"op": "next", "value": dump["next_id"]}


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _swap_in(
    target: Path, data: bytes, *, collection_name: str | None = None,
    fault: bool = False,
) -> None:
    """Write ``data`` next to ``target`` and atomically rename it over.

    The temp file is fsync'd *before* the rename and the caller fsyncs the
    directory after — a crash at any point leaves either the old complete
    file or the new complete one, never a mix.  ``fault=True`` arms the
    ``mid-compaction-swap`` crash point between the two.
    """
    tmp = target.with_name(target.name + _TMP_SUFFIX)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        wal.write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    if fault:
        wal.maybe_fault("mid-compaction-swap", collection_name)
    os.replace(tmp, target)


def write_segment(
    target: Path,
    records: Iterable[Mapping[str, Any]],
    *,
    collection_name: str | None = None,
    fault: bool = False,
) -> int:
    """Write a complete v2 segment and swap it in over ``target``."""
    data = b"".join(wal.encode_record(record) for record in records)
    _swap_in(target, data, collection_name=collection_name, fault=fault)
    return len(data)


def _quarantine_tail(path: Path, torn: bytes, valid_end: int, name: str) -> None:
    """Preserve the bytes of a torn tail (the caller truncates them)."""
    sidecar = path.with_name(f"{path.name}.corrupt-{int(time.time() * 1000)}")
    sidecar.write_bytes(torn)
    _TORN_TRUNCATIONS.inc(name)
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
        self._wal_logs: dict[str, wal.CollectionLog] = {}
        self._wal_root: Path | None = None
        self._wal_ready = False
        self._wal_dir_dirty = False
        if self.path is None:
            self.engine = "memory"
            return
        self.engine = "wal"
        self._wal_root = self.path.with_name(self.path.name + ".wal")
        self._wal_root.mkdir(parents=True, exist_ok=True)
        # Open under the store lock: migrate a legacy snapshot if one is
        # present, clean compaction leftovers, replay the logs, and
        # truncate any torn tail a previous crash left behind.
        with self.exclusive():
            pass

    # -- collection management ------------------------------------------------

    def _new_collection(self, name: str) -> Collection:
        collection = Collection(name)
        if self.engine == "wal":
            collection.bind_engine(
                guard=self.exclusive,
                journal=lambda record, _name=name: self._wal_append(_name, record),
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
        """Remove a collection entirely; returns whether it existed."""
        if self.engine != "wal":
            return self._collections.pop(name, None) is not None
        with self.exclusive():
            existed = self._collections.pop(name, None) is not None
            log = self._wal_logs.pop(name, None)
            if log is not None:
                log.close()
                log.path.unlink(missing_ok=True)
                self._wal_dir_dirty = True
                existed = True
            return existed

    def stats(self) -> dict[str, Any]:
        """Document counts per collection (the admin endpoint's payload),
        plus per-segment WAL counters when this store journals."""
        payload: dict[str, Any] = {
            "collections": {
                name: len(collection)
                for name, collection in sorted(self._collections.items())
            },
            "path": str(self.path) if self.path else None,
            "engine": self.engine,
        }
        if self.engine == "wal":
            segments: dict[str, Any] = {}
            for name, log in sorted(self._wal_logs.items()):
                stat = log.stat()
                segments[name] = {
                    "segment_bytes": stat.st_size if stat else 0,
                    "records": log.records,
                    "live_documents": len(self._collections.get(name, ())),
                    "compactions": log.compactions,
                }
            payload["wal"] = segments
        return payload

    # -- WAL engine: locking, replay, recovery ----------------------------------

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """The store's cross-process critical section.

        WAL engine: process-local reentrant lock + ``flock`` on
        ``<root>/LOCK``; entry replays peers' log tails (so a mutation
        always starts from the shared present — id assignment and
        ``update_if`` CAS decisions are then correct across processes)
        and exit fsyncs every dirty log *before* the lock releases, so an
        acknowledged mutation is durable.  Memory engine: the process
        lock only.

        Reentrant: nested sections piggyback on the outer one (``flock``
        self-deadlocks across fds of one process otherwise) and share its
        single exit fsync.
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
                    if not self._wal_ready:
                        self._wal_open_locked()
                    self._wal_refresh(truncate_torn=True)
                    yield
                finally:
                    self._lock_depth = 0
                    self._wal_sync()
            finally:
                handle.close()  # closing the fd releases the flock

    def refresh(self) -> None:
        """Adopt changes other processes appended since the last look.

        Cheap when nothing changed (one ``stat`` per log).  Lock-free:
        a tail being appended right now simply decodes short and is
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
        """First-open work under the lock: import a legacy snapshot or
        migrate v1 logs; an unknown ``FORMAT`` marker raises."""
        assert self.path is not None and self._wal_root is not None
        found = wal.read_format(self._wal_root)
        if found == wal.FORMAT_V1:
            self._migrate_v1()
        elif found is None:
            if self.path.exists():
                migrated = 0
                for collection in self._read_snapshot(self.path):
                    target = self._wal_root / (
                        _encode_name(collection.name) + _SEGMENT_SUFFIX
                    )
                    write_segment(target, collection_records(collection))
                    migrated += 1
                if migrated:
                    (self._wal_root / _MIGRATED_MARKER).write_text(
                        self.path.name + "\n"
                    )
                    _log.warning(
                        "store: migrated legacy snapshot %s to %d WAL "
                        "segment(s) under %s; original kept until the "
                        "first successful compaction",
                        self.path, migrated, self._wal_root,
                    )
            self._write_format_marker()
        self._wal_ready = True

    def _write_format_marker(self) -> None:
        assert self._wal_root is not None
        _swap_in(
            self._wal_root / wal.FORMAT_MARKER, (_FORMAT_VALUE + "\n").encode()
        )
        _fsync_dir(self._wal_root)

    def _migrate_v1(self) -> None:
        """Rewrite every v1 log as a v2 segment, then flip the marker.

        Per log: verify ``<name>.log`` with CRC-32C (a torn tail is
        quarantined and truncated exactly as replay would), swap
        ``<name>.seg`` in through :func:`write_segment`, fsync the
        directory, unlink the log.  A kill at any point converges: a
        ``.seg`` beside a ``.log`` is a finished rewrite whose unlink was
        lost, so the ``.seg`` wins; the marker flips only once no v1 log
        is left.  The ``mid-format-migration`` crash point fires after
        each rewrite and once more just before the flip.
        """
        assert self._wal_root is not None
        root = self._wal_root
        checksum = wal.format_checksum(wal.FORMAT_V1)
        v1_suffix = wal.SEGMENT_SUFFIXES[wal.FORMAT_V1]
        logs = sorted(root.glob("*" + v1_suffix))
        for log_path in logs:
            stem = log_path.name[: -len(v1_suffix)]
            name = _decode_name(stem)
            segment = root / (stem + _SEGMENT_SUFFIX)
            if not segment.exists():
                data = log_path.read_bytes()
                records, valid_end, torn = wal.decode_records(
                    data, checksum=checksum
                )
                if torn:
                    _quarantine_tail(log_path, data[valid_end:], valid_end, name)
                    os.truncate(log_path, valid_end)
                write_segment(segment, records)
                _fsync_dir(root)
                wal.maybe_fault("mid-format-migration", name)
            log_path.unlink()
        _fsync_dir(root)
        wal.maybe_fault("mid-format-migration")
        self._write_format_marker()
        if logs:
            _log.warning(
                "store: migrated %d WAL log(s) under %s from %s to %s",
                len(logs), root, wal.FORMAT_V1, _FORMAT_VALUE,
            )

    def _wal_refresh(self, truncate_torn: bool) -> None:
        assert self._wal_root is not None
        try:
            entries = os.listdir(self._wal_root)
        except FileNotFoundError:  # pragma: no cover - root deleted underneath
            return
        for entry in entries:
            if entry.endswith(_SEGMENT_SUFFIX):
                name = _decode_name(entry[: -len(_SEGMENT_SUFFIX)])
                if name not in self._wal_logs:
                    self._wal_logs[name] = wal.CollectionLog(
                        name, self._wal_root / entry
                    )
                    self.collection(name)  # materialize for replay
            elif entry.endswith(_TMP_SUFFIX) and truncate_torn:
                # Leftover of a compaction killed before its atomic swap:
                # the old log is still complete; the half-segment is noise.
                (self._wal_root / entry).unlink(missing_ok=True)
        for name, log in list(self._wal_logs.items()):
            collection = self.collection(name)
            stat = log.stat()
            if stat is None:
                # A peer dropped the collection (tombstoned wholesale).
                log.close()
                del self._wal_logs[name]
                self._collections.pop(name, None)
                continue
            if log.inode_changed(stat) or stat.st_size < log.applied_offset:
                # A peer compacted: new segment, replay it from zero.
                log.reopen()
                collection.reset_state()
                stat = log.stat()
                if stat is None:  # pragma: no cover - raced a drop
                    continue
            if stat.st_size > log.applied_offset:
                tail = log.read_tail(stat.st_size)
                valid = 0
                for record, valid in wal.iter_records(tail):
                    collection.apply_wal_record(record)
                    log.records += 1
                log.applied_offset += valid
                if valid < len(tail) and truncate_torn:
                    # A crash landed mid-append: keep then drop the tail.
                    _quarantine_tail(
                        log.path, tail[valid:], log.applied_offset, name
                    )
                    log.truncate_to(log.applied_offset)

    def _wal_append(self, name: str, record: Mapping[str, Any]) -> None:
        assert self.engine == "wal" and self._wal_root is not None
        assert self._lock_depth > 0, "WAL appends require Database.exclusive()"
        log = self._wal_logs.get(name)
        if log is None:
            log = wal.CollectionLog(
                name, self._wal_root / (_encode_name(name) + _SEGMENT_SUFFIX)
            )
            self._wal_logs[name] = log
            self._wal_dir_dirty = True  # new file: directory entry to fsync
        log.append(record)

    def _wal_sync(self) -> None:
        for log in self._wal_logs.values():
            log.sync()
        if self._wal_dir_dirty:
            assert self._wal_root is not None
            _fsync_dir(self._wal_root)
            self._wal_dir_dirty = False

    def compact_collection(self, name: str) -> dict[str, Any]:
        """Rewrite one collection's log to its live state, atomically.

        Crash-safe at any point: the new segment is complete and fsync'd
        before the rename, the old log stays intact until it, and peers
        detect the inode change and replay the fresh segment.  Returns
        before/after byte counts.
        """
        with self.exclusive():
            log = self._wal_logs.get(name)
            if log is None:
                return {"collection": name, "before_bytes": 0,
                        "after_bytes": 0, "compacted": False}
            stat = log.stat()
            before = stat.st_size if stat else 0
            started = time.perf_counter()
            collection = self.collection(name)
            records = list(collection_records(collection))
            after = write_segment(
                log.path, records, collection_name=name, fault=True
            )
            _fsync_dir(log.path.parent)
            log.adopt_segment(after, len(records))
            _COMPACTION_SECONDS.observe(time.perf_counter() - started, name)
            return {"collection": name, "before_bytes": before,
                    "after_bytes": after, "compacted": True}

    def compact(self) -> list[dict[str, Any]]:
        """Compact every collection; archives a migrated legacy snapshot.

        The first successful *full* compaction is the point after which
        the pre-WAL snapshot file is no longer the fallback of record —
        it is renamed to ``<path>.pre-wal`` (never deleted).
        """
        if self.engine != "wal":
            return []
        with self.exclusive():
            results = [
                self.compact_collection(name)
                for name in sorted(self._wal_logs)
            ]
            assert self._wal_root is not None and self.path is not None
            marker = self._wal_root / _MIGRATED_MARKER
            if marker.exists():
                if self.path.exists():
                    archived = self.path.with_name(self.path.name + ".pre-wal")
                    os.replace(self.path, archived)
                    _log.warning(
                        "store: archived migrated legacy snapshot to %s "
                        "after first full compaction", archived,
                    )
                marker.unlink(missing_ok=True)
                self._wal_dir_dirty = True
            return results

    # -- persistence (legacy snapshot format; export + migration) ---------------

    def save(self, path: str | Path | None = None) -> Path:
        """Export a JSON snapshot atomically *and durably*; returns the path.

        A pure export: the WAL engine needs no snapshot for durability
        (appends are fsync'd per transition), and saving a memory database
        does not bind it to ``path``.  A snapshot at a store path is
        imported into WAL segments on first open.  The temp file is
        fsync'd before the rename and the directory after it, so the
        snapshot survives power loss, not just process death.
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
