"""Write-ahead log primitives: the store's one log, commit records, recovery.

The WAL-backed store engine journals into **one** append-only log per
store, ``<path>.wal/journal``.  Every ``Database.exclusive()`` section
commits as one *record*::

    <length: u32 LE> <zlib.crc32(payload): u32 LE> <payload: UTF-8 JSON>

whose payload groups the section's mutation ops under their collection
names, each name written once: ``{"jobs": [op, ...], "alerts": [...]}``.
A put op is the document itself; other ops are short lists such as
``["del", ids]`` (see ``Collection.apply_wal_record``).
The commit is one ``write(2)`` through an ``O_APPEND`` fd and one fsync,
both before the section releases its lock, so an acknowledged section is
on disk whole.  Replay walks records from the front and stops at the
first bad length, short payload, checksum mismatch, or unparseable JSON.
Everything before that point is exactly the prefix of completed commits;
everything after is a *torn tail* (a crash landed mid-commit), which
recovery quarantines and truncates.  A record is applied whole or not at
all, so neither a restart nor a peer's lock-free refresh ever sees part
of a section.

The ``FORMAT`` marker names the directory's format; the runtime reads only
``repro-store-wal-v3`` (:func:`check_format`), and ``repro store upgrade``
(:mod:`repro.store.upgrade`, the one reader of v1's :func:`crc32c`)
rewrites any other layout.

Fault injection mirrors ``repro.jobs.durable``: ``REPRO_STORE_FAULT``
names a crash point (:data:`FAULT_POINTS`) and the process hard-exits
(``os._exit``) there, exactly like ``kill -9`` landing mid-write.  The
spec grammar is ``<point>[@<collection>][:<nth>]``.  A collection scope
counts the commits that carry a record of that collection, so
``mid-append@jobs:2`` kills the process halfway through writing the
second commit that touches ``jobs``.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..faults import CrashPoints
from ..obs.metrics import get_registry

__all__ = [
    "FAULT_ENV",
    "FAULT_EXIT_CODE",
    "FAULT_POINTS",
    "FORMAT_MARKER",
    "FORMAT_V3",
    "LOG_NAME",
    "CollectionLog",
    "UnknownFormatError",
    "check_format",
    "crc32c",
    "decode_records",
    "encode_record",
    "iter_records",
    "maybe_fault",
    "read_format",
    "verify_log",
    "write_all",
]

#: Environment variable naming the store crash point to hard-exit at.
FAULT_ENV = "REPRO_STORE_FAULT"

#: Supported crash points, in write-path order.
FAULT_POINTS = (
    "mid-section",           # records staged for two collections, no commit
    "mid-append",            # half a commit written; the tail is torn
    "pre-fsync",             # commit written, fsync never issued
    "mid-compaction-swap",   # new log written; old log never replaced
    "mid-format-migration",  # `repro store upgrade`: v3 log written, marker
                             # not yet flipped; then before each old file's
                             # unlink after the flip
)

#: Exit status for store fault exits (jobs faults use 70; keep them apart).
FAULT_EXIT_CODE = 71

#: Marker file naming a WAL directory's record format.
FORMAT_MARKER = "FORMAT"
FORMAT_V3 = "repro-store-wal-v3"

#: The v3 store log's file name under ``<path>.wal/``.
LOG_NAME = "journal"

Checksum = Callable[[bytes], int]

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: Sanity bound on one record; a corrupt length field must not trigger a
#: gigabyte allocation during replay.
MAX_RECORD_BYTES = 256 * 1024 * 1024

# WAL write-path metrics.  One perf_counter pair per commit/fsync — noise
# next to the write(2)/fsync(2) they bracket.
_APPEND_SECONDS = get_registry().histogram(
    "repro_wal_append_seconds",
    "Latency of one WAL commit append (write(2) only, not fsync).",
)
_FSYNC_SECONDS = get_registry().histogram(
    "repro_wal_fsync_seconds",
    "Latency of one WAL fsync barrier.",
)


# -- formats ----------------------------------------------------------------------


class UnknownFormatError(ValueError):
    """A store layout the runtime does not open: an older one (rewrite it
    with ``repro store upgrade``) or a newer one."""


def read_format(root: Path) -> str | None:
    """The text of a WAL directory's ``FORMAT`` marker (``None`` if absent)."""
    try:
        return (Path(root) / FORMAT_MARKER).read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        return None


def check_format(root: Path, path: Path) -> bool:
    """Whether a v3 store exists at ``path`` (``False``: none yet, neither a
    marker in ``root`` nor a file at ``path``).  Any other layout raises
    :class:`UnknownFormatError` naming ``repro store upgrade``; reads only."""
    found = read_format(root)
    if found == FORMAT_V3 or (found is None and not Path(path).exists()):
        return found is not None
    layout = f"marker {found!r}" if found is not None else f"a file at {path} and no marker"
    raise UnknownFormatError(
        f"unrecognised WAL format in {root}: {layout}; this version opens "
        f"only {FORMAT_V3} (run `repro store upgrade --store {path}`)"
    )


# -- CRC-32C (Castagnoli), table-based: the v1 records `repro store upgrade` reads

_CRC32C_POLY = 0x82F63B78  # reversed 0x1EDC6F41


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _build_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data`` (optionally continuing from a prior value)."""
    crc ^= 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


# -- fault injection --------------------------------------------------------------

_CRASH_POINTS = CrashPoints(FAULT_ENV, FAULT_EXIT_CODE)
fault_armed = _CRASH_POINTS.armed
maybe_fault = _CRASH_POINTS.maybe_fault


# -- record codec -----------------------------------------------------------------


def write_all(fd: int, data: bytes) -> None:
    """``write(2)`` until every byte of ``data`` is down.

    A regular file may take fewer bytes than asked (a disk filling up
    midway, or more than 2 GiB in one call); a call that makes no
    progress raises instead of spinning.
    """
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        if written <= 0:
            raise OSError(f"write made no progress with {len(view)} byte(s) left")
        view = view[written:]


def frame(payload: bytes, checksum: Checksum = zlib.crc32) -> bytes:
    """Length-prefix and checksum one encoded payload."""
    return _HEADER.pack(len(payload), checksum(payload)) + payload


def encode_record(record: Mapping[str, Any], checksum: Checksum = zlib.crc32) -> bytes:
    """One length-prefixed, checksummed record: header + JSON payload."""
    return frame(json.dumps(record, separators=(",", ":")).encode("utf-8"), checksum)


def iter_records(
    buffer: bytes, start: int = 0, checksum: Checksum = zlib.crc32
) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, end)`` for each intact record of ``buffer[start:]``.

    ``end`` is the offset just past the record.  Iteration stops at the
    first short header/payload, bad length, ``checksum`` mismatch, or
    undecodable JSON: everything after is a torn tail.  Records decode
    one at a time, so replaying a long log never holds it all decoded.
    """
    offset = start
    end = len(buffer)
    while offset + HEADER_SIZE <= end:
        length, stored = _HEADER.unpack_from(buffer, offset)
        if length > MAX_RECORD_BYTES:
            return
        body_end = offset + HEADER_SIZE + length
        if body_end > end:
            return
        payload = buffer[offset + HEADER_SIZE:body_end]
        if checksum(payload) != stored:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return
        if not isinstance(record, dict):
            return
        offset = body_end
        yield record, offset


def decode_records(
    buffer: bytes, start: int = 0, checksum: Checksum = zlib.crc32
) -> tuple[list[dict[str, Any]], int, bool]:
    """Replay records from ``buffer[start:]``, verifying each with ``checksum``.

    Returns ``(records, valid_end, torn)``: the decoded records, the byte
    offset just past the last valid record, and whether trailing bytes
    were rejected (see :func:`iter_records`).  Recovery truncates the file
    to ``valid_end``; readers racing a live writer simply retry from it
    later — an in-flight commit looks exactly like a torn tail until it
    completes.
    """
    records: list[dict[str, Any]] = []
    valid_end = start
    for record, valid_end in iter_records(buffer, start, checksum):
        records.append(record)
    return records, valid_end, valid_end < len(buffer)


def verify_log(path: str | Path, checksum: Checksum = zlib.crc32) -> dict[str, Any]:
    """Offline checksum walk of one log file (``repro store verify``).

    ``records`` counts frames: commits in a v3 log, ops in an older one.
    """
    data = Path(path).read_bytes()
    records, valid_end, torn = decode_records(data, checksum=checksum)
    return {
        "path": str(path),
        "records": len(records),
        "total_bytes": len(data),
        "valid_bytes": valid_end,
        "torn_bytes": len(data) - valid_end,
        "torn": torn,
    }


# -- the store log ----------------------------------------------------------------


class CollectionLog:
    """The append fd + replay cursor of the store's one log.

    The class keeps the name it had when every collection had its own log
    (``perfbench/layers.py`` wraps :meth:`append` and :meth:`sync` by
    name, and reads ``collection_name``, which is now the log's name).

    The owning :class:`~repro.store.database.Database` serializes access:
    commits and truncation happen only inside its cross-process exclusive
    section; tail reads may race a live writer and must treat a torn tail
    as "not yet readable" rather than corruption (see
    :func:`iter_records`).
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.collection_name = self.path.name
        self._fd: int | None = None
        self.inode = 0
        #: Bytes of this file already applied to the in-memory collections.
        self.applied_offset = 0
        #: Ops seen (replayed + committed) since open/rebuild — the
        #: compaction trigger compares this against the live document count.
        self.records = 0
        self.compactions = 0
        self.dirty = False
        #: The collections of the last commit, the scope of ``pre-fsync``.
        self._scopes: tuple[str, ...] = ()
        self._open_fd()

    def _open_fd(self) -> None:
        self._fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.inode = os.fstat(self._fd).st_ino

    @property
    def fd(self) -> int:
        assert self._fd is not None
        return self._fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def reopen(self) -> None:
        """Re-point at the current file and reset the replay cursor."""
        self.close()
        self._open_fd()
        self.applied_offset = 0
        self.records = 0
        self.dirty = False

    def adopt(self, size: int, records: int) -> None:
        """Switch to a freshly written log of known content.

        The writer just produced it from the in-memory state, so nothing
        needs replaying — the cursor jumps straight to its end.
        """
        self.reopen()
        self.applied_offset = size
        self.records = records
        self.compactions += 1

    # -- writes ----------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> int:
        """Append one commit record (collection name → ops); returns its
        encoded size.

        The write goes through the ``O_APPEND`` fd (looping over short
        writes); durability comes from :meth:`sync` before the exclusive
        section releases.  A write that fails partway is cut back off, so
        later commits never land behind a half record.  The
        ``mid-append`` crash point writes *half* the record and dies —
        producing the torn tail recovery must truncate.
        """
        data = encode_record(record)
        self._scopes = tuple(record)
        if fault_armed("mid-append", self._scopes):
            os.write(self.fd, data[: max(1, len(data) // 2)])
            os._exit(FAULT_EXIT_CODE)
        started = time.perf_counter()
        try:
            write_all(self.fd, data)
        except OSError:
            os.ftruncate(self.fd, self.applied_offset)
            raise
        _APPEND_SECONDS.observe(time.perf_counter() - started)
        self.applied_offset += len(data)
        self.records += sum(len(ops) for ops in record.values())
        self.dirty = True
        return len(data)

    def sync(self) -> None:
        """fsync the pending commit (the ``pre-fsync`` crash point)."""
        if not self.dirty:
            return
        maybe_fault("pre-fsync", self._scopes)
        started = time.perf_counter()
        os.fsync(self.fd)
        _FSYNC_SECONDS.observe(time.perf_counter() - started)
        self.dirty = False

    def truncate_to(self, offset: int) -> None:
        """Drop a torn tail (exclusive section only — no live writers)."""
        os.ftruncate(self.fd, offset)
        self.applied_offset = min(self.applied_offset, offset)

    # -- reads -----------------------------------------------------------------

    def read_tail(self, size: int) -> bytes:
        """The bytes between the replay cursor and ``size``.

        The caller decodes them with :func:`iter_records` and advances
        ``applied_offset`` past the records it applied.
        """
        length = size - self.applied_offset
        return os.pread(self.fd, length, self.applied_offset)
