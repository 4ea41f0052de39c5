"""Embedded document store — the MongoDB substitute (see DESIGN.md).

Bound to a path it runs the crash-safe WAL engine: every
``Database.exclusive()`` section commits its mutations as one checksummed,
fsync'd record of the store's one append-only log under ``<path>.wal/``
(see :mod:`repro.store.wal` and the "Store engine" section of DESIGN.md).

Documents are frozen on write and shared read-only on read: ``find`` and
``find_one`` return the stored objects themselves, whose mutators raise
``TypeError`` (see :mod:`repro.store.frozen`); ``thaw()`` one to get a
mutable copy.
"""

from .collection import Collection
from .compaction import CompactionThread
from .database import Database
from .frozen import thaw
from .index import HashIndex, SortedIndex
from .query import QueryError, compile_query, matches
from .wal import verify_log

__all__ = [
    "Collection",
    "CompactionThread",
    "Database",
    "HashIndex",
    "QueryError",
    "SortedIndex",
    "compile_query",
    "matches",
    "thaw",
    "verify_log",
]
