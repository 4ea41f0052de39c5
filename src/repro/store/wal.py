"""Write-ahead log primitives: checksummed records, torn-tail recovery.

The WAL-backed store engine journals every mutation of a collection as one
*record* in a per-collection append-only segment::

    <length: u32 LE> <checksum(payload): u32 LE> <payload: UTF-8 JSON>

Appends go through an ``O_APPEND`` fd and are fsync'd before the writing
critical section releases its lock, so an acknowledged transition is on
disk.  Replay walks records from the front and stops at the first bad
length, short payload, checksum mismatch, or unparseable JSON — everything
before that point is exactly the prefix of successfully appended records;
everything after is a *torn tail* (a crash landed mid-append) and is
truncated by recovery, after quarantining the bytes for post-mortems.

The record format is versioned by the directory's ``FORMAT`` marker and by
each segment's file suffix, so a file always says how to check it:

* ``repro-store-wal-v2`` (``<name>.seg``, current) checksums with stdlib
  ``zlib.crc32`` — C speed, about 1.9 GB/s, so reopening a store is
  bounded by JSON decoding rather than by the checksum;
* ``repro-store-wal-v1`` (``<name>.log``) checksummed with CRC-32C
  (Castagnoli) in table-based pure Python, about 5.5 MB/s.  v1 logs are
  only ever *read*: the store verifies them once with :func:`crc32c` and
  rewrites them as v2 on open (see ``Database._migrate_v1``).

Fault injection mirrors ``repro.jobs.durable``: ``REPRO_STORE_FAULT``
names a crash point (:data:`FAULT_POINTS`) and the process hard-exits
(``os._exit``) there, exactly like ``kill -9`` landing mid-write.  The
spec grammar is ``<point>[@<collection>][:<nth>]`` — e.g.
``mid-append@jobs:2`` kills the process halfway through the second append
to the ``jobs`` collection's log.
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
    "FORMAT_V1",
    "FORMAT_V2",
    "SEGMENT_SUFFIXES",
    "CollectionLog",
    "UnknownFormatError",
    "crc32c",
    "decode_records",
    "encode_record",
    "format_checksum",
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
    "mid-append",            # half a record written; the tail is torn
    "pre-fsync",             # record written, fsync never issued
    "mid-compaction-swap",   # new segment written; old log never replaced
    "mid-format-migration",  # nth v1 log rewritten as v2, not yet unlinked;
                             # once more (logs + 1) just before the marker flip
)

#: Exit status for store fault exits (jobs faults use 70; keep them apart).
FAULT_EXIT_CODE = 71

#: Marker file naming a WAL directory's record format.
FORMAT_MARKER = "FORMAT"
FORMAT_V1 = "repro-store-wal-v1"
FORMAT_V2 = "repro-store-wal-v2"

#: Segment file suffix per format, oldest first.  Each file names its own
#: format, so a v2 segment is never replayed (let alone truncated) with the
#: v1 checksum — and a v1 binary, which globs ``*.log``, never sees one.
SEGMENT_SUFFIXES = {FORMAT_V1: ".log", FORMAT_V2: ".seg"}

Checksum = Callable[[bytes], int]

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: Sanity bound on one record; a corrupt length field must not trigger a
#: gigabyte allocation during replay.
MAX_RECORD_BYTES = 256 * 1024 * 1024

# WAL write-path metrics, labelled by collection.  One perf_counter pair
# per append/fsync — noise next to the write(2)/fsync(2) they bracket.
_APPEND_SECONDS = get_registry().histogram(
    "repro_wal_append_seconds",
    "Latency of one WAL record append (write(2) only, not fsync).",
    ("collection",),
)
_FSYNC_SECONDS = get_registry().histogram(
    "repro_wal_fsync_seconds",
    "Latency of one WAL fsync barrier.",
    ("collection",),
)


# -- formats ----------------------------------------------------------------------


class UnknownFormatError(ValueError):
    """A ``FORMAT`` marker this code cannot read (e.g. from a newer version)."""


def format_checksum(fmt: str) -> Checksum:
    """Record checksum of a format.

    Resolved per call, so a wrapper installed on :func:`crc32c` by name
    (a tracer) sees the v1 migration reader's calls.
    """
    if fmt == FORMAT_V2:
        return zlib.crc32
    if fmt == FORMAT_V1:
        return crc32c
    raise UnknownFormatError(f"unknown WAL format {fmt!r}")


def read_format(root: Path) -> str | None:
    """The format a WAL directory's ``FORMAT`` marker names (``None`` if absent).

    v1 wrote the marker in place, so an empty marker is a v1 first open
    killed mid-write.  A value this code does not know raises: the store
    may belong to a newer version, and replaying it with the wrong
    checksum would truncate every segment as torn.
    """
    marker = Path(root) / FORMAT_MARKER
    try:
        fmt = marker.read_text(encoding="utf-8").strip() or FORMAT_V1
    except FileNotFoundError:
        return None
    if fmt not in SEGMENT_SUFFIXES:
        raise UnknownFormatError(
            f"unrecognised WAL format in {marker}: {fmt!r} (this version "
            f"reads {', '.join(SEGMENT_SUFFIXES)})"
        )
    return fmt


# -- CRC-32C (Castagnoli), table-based: the v1 migration reader only -------------

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


def encode_record(record: Mapping[str, Any], checksum: Checksum = zlib.crc32) -> bytes:
    """One length-prefixed, checksummed record: header + JSON payload."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), checksum(payload)) + payload


def iter_records(
    buffer: bytes, start: int = 0, checksum: Checksum = zlib.crc32
) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, end)`` for each intact record of ``buffer[start:]``.

    ``end`` is the offset just past the record.  Iteration stops at the
    first short header/payload, bad length, ``checksum`` mismatch, or
    undecodable JSON: everything after is a torn tail.  Records decode
    one at a time, so replaying a log of superseded versions never holds
    them all in memory at once.
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
    later — an in-flight append looks exactly like a torn tail until it
    completes.
    """
    records: list[dict[str, Any]] = []
    valid_end = start
    for record, valid_end in iter_records(buffer, start, checksum):
        records.append(record)
    return records, valid_end, valid_end < len(buffer)


def verify_log(path: str | Path, checksum: Checksum = zlib.crc32) -> dict[str, Any]:
    """Offline checksum walk of one segment file (``repro store verify``)."""
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


# -- one collection's log ---------------------------------------------------------


class CollectionLog:
    """The append fd + replay cursor for one collection's log file.

    The owning :class:`~repro.store.database.Database` serializes access:
    appends and truncation happen only inside its cross-process exclusive
    section; tail reads may race a live writer and must treat a torn tail
    as "not yet readable" rather than corruption (see
    :func:`iter_records`).
    """

    def __init__(self, collection_name: str, path: Path) -> None:
        self.collection_name = collection_name
        self.path = Path(path)
        self._fd: int | None = None
        #: Bytes of this file already applied to the in-memory collection.
        self.applied_offset = 0
        #: Records seen (replayed + appended) since open/rebuild — the
        #: compaction trigger compares this against the live document count.
        self.records = 0
        self.compactions = 0
        self.dirty = False
        self._open_fd()

    def _open_fd(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )

    @property
    def fd(self) -> int:
        assert self._fd is not None
        return self._fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- identity / size -------------------------------------------------------

    def stat(self) -> os.stat_result | None:
        try:
            return os.stat(self.path)
        except FileNotFoundError:
            return None

    def inode_changed(self, stat: os.stat_result) -> bool:
        """True when ``path`` now names a different file than our fd (a
        peer's compaction swapped a fresh segment in)."""
        return stat.st_ino != os.fstat(self.fd).st_ino

    def reopen(self) -> None:
        """Re-point at the current file and reset the replay cursor."""
        self.close()
        self._open_fd()
        self.applied_offset = 0
        self.records = 0
        self.dirty = False

    def adopt_segment(self, size: int, records: int) -> None:
        """Switch to a freshly written compacted segment of known content.

        The writer just produced the segment from the in-memory state, so
        nothing needs replaying — the cursor jumps straight to its end.
        """
        self.close()
        self._open_fd()
        self.applied_offset = size
        self.records = records
        self.compactions += 1
        self.dirty = False

    # -- writes ----------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> int:
        """Append one record; returns its encoded size.

        The write goes through the ``O_APPEND`` fd (looping over short
        writes); durability comes from :meth:`sync` before the exclusive
        section releases.  A write that fails partway is cut back off, so
        later appends never land behind a half record.  The
        ``mid-append`` crash point writes *half* the record and dies —
        producing the torn tail recovery must truncate.
        """
        data = encode_record(record)
        if fault_armed("mid-append", self.collection_name):
            os.write(self.fd, data[: max(1, len(data) // 2)])
            os._exit(FAULT_EXIT_CODE)
        started = time.perf_counter()
        try:
            write_all(self.fd, data)
        except OSError:
            os.ftruncate(self.fd, self.applied_offset)
            raise
        _APPEND_SECONDS.observe(
            time.perf_counter() - started, self.collection_name
        )
        self.applied_offset += len(data)
        self.records += 1
        self.dirty = True
        return len(data)

    def sync(self) -> None:
        """fsync pending appends (the ``pre-fsync`` crash point)."""
        if not self.dirty:
            return
        maybe_fault("pre-fsync", self.collection_name)
        started = time.perf_counter()
        os.fsync(self.fd)
        _FSYNC_SECONDS.observe(
            time.perf_counter() - started, self.collection_name
        )
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
