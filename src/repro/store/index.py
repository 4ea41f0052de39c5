"""Secondary indexes for the document store.

Two index kinds, mirroring what the system actually queries:

* :class:`HashIndex` — exact-match lookup on one dotted field path.  Used by
  the cache (lookup by parameter-hash) and by dataset-name queries.
* :class:`SortedIndex` — order-preserving index supporting range scans
  (``$gt``/``$lt`` style) and an O(1) maximum, used by the stream feed's
  ``seq`` cursor and the job registry's ``sequence`` counter.

Indexes observe inserts/removes through the collection; they never own the
documents.  Values that are missing or None stay out of both kinds, and
unorderable values out of the sorted one; the collection answers queries
about those documents without the index.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, KeysView, Mapping

from .query import MISSING, get_path

__all__ = ["HashIndex", "SortedIndex"]


class HashIndex:
    """Exact-match index: field value → set of document ids."""

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("index path must be non-empty")
        self.path = path
        self._buckets: dict[Any, set[int]] = {}
        #: Every document whose field is present and not None, with its
        #: value.  An unhashable value (an array, an object) is held here
        #: but in no bucket: it never equals a hashable probe.
        self._indexed: dict[int, Any] = {}

    def insert(self, doc_id: int, document: Mapping[str, Any]) -> None:
        key = get_path(document, self.path)
        if key is MISSING or key is None:
            return
        self._indexed[doc_id] = key
        try:
            self._buckets.setdefault(key, set()).add(doc_id)
        except TypeError:
            pass  # unhashable: held in _indexed only

    def remove(self, doc_id: int) -> None:
        key = self._indexed.pop(doc_id, MISSING)
        if key is MISSING:
            return
        try:
            bucket = self._buckets.get(key)
        except TypeError:
            return  # unhashable: never bucketed
        if bucket is not None:
            bucket.discard(doc_id)
            if not bucket:
                del self._buckets[key]

    def lookup(self, value: Any) -> set[int]:
        """Document ids whose indexed field equals ``value``; raises
        ``TypeError`` when ``value`` is unhashable."""
        return set(self._buckets.get(value, ()))

    def ids(self) -> KeysView[int]:
        """Every document whose field is present and not None (a live view)."""
        return self._indexed.keys()

    def __len__(self) -> int:
        return len(self._indexed)


class SortedIndex:
    """Order-preserving index supporting range queries on one field."""

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("index path must be non-empty")
        self.path = path
        self._entries: list[tuple[Any, int]] = []  # sorted by (value, doc_id)
        self._indexed: dict[int, Any] = {}

    def insert(self, doc_id: int, document: Mapping[str, Any]) -> None:
        value = get_path(document, self.path)
        if value is MISSING or value is None:
            return
        try:
            bisect.insort(self._entries, (value, doc_id))
        except TypeError:
            return
        self._indexed[doc_id] = value

    def remove(self, doc_id: int) -> None:
        value = self._indexed.pop(doc_id, MISSING)
        if value is MISSING:
            return
        pos = bisect.bisect_left(self._entries, (value, doc_id))
        if pos < len(self._entries) and self._entries[pos] == (value, doc_id):
            self._entries.pop(pos)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Document ids with indexed value in the given (optional) bounds."""
        entries = self._entries
        if low is None:
            start = 0
        else:
            key = (low, -1) if include_low else (low, float("inf"))
            try:
                start = bisect.bisect_left(entries, key)
            except TypeError:
                start = 0
        for value, doc_id in entries[start:]:
            if high is not None:
                try:
                    if value > high or (value == high and not include_high):
                        break
                except TypeError:
                    continue
            if low is not None and not include_low:
                try:
                    if value == low:
                        continue
                except TypeError:
                    continue
            yield doc_id

    def max(self) -> Any:
        """The largest indexed value, or ``None`` when the index is empty."""
        return self._entries[-1][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._indexed)
