"""Document collections.

A :class:`Collection` owns JSON-like documents keyed by an integer id the
store assigns (exposed as ``_id``), supports Mongo-style ``find`` /
``insert_one`` / ``update_one`` / ``delete_many`` over the query language
of :mod:`repro.store.query`, and consults its secondary indexes to avoid
full scans for equality, ``$in`` and range queries.

Documents are frozen on write and shared read-only on read: every write
stores a :class:`~repro.store.frozen.FrozenDict` (nested values frozen too,
see :mod:`repro.store.frozen`), and ``find``/``find_one``/``dump`` return
those stored objects themselves, with no copy.  A caller can therefore never
change stored state behind the store's back — a mutation attempt raises
``TypeError`` — and a caller that needs to edit a document works on
``thaw(document)``.  Updates are copy-on-write: they swap in a new frozen
document, so a reader holding the old one keeps a consistent snapshot.
A document (or change set) the caller froze before its critical section is
stored as it is, so the section only stages it; ``insert_many`` freezes its
batch before entering the section itself.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Iterable, Iterator, Mapping

from .frozen import FrozenDict, freeze
from .index import HashIndex, SortedIndex
from .query import MISSING, QueryError, compile_query, get_path, is_operator_spec, matches

__all__ = ["Collection"]


def _frozen(document: Mapping[str, Any]) -> FrozenDict:
    """``document`` frozen; one that already is costs no freeze call."""
    return document if type(document) is FrozenDict else freeze(document)


class Collection:
    """One named set of documents with optional secondary indexes."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("collection name must be non-empty")
        self.name = name
        self._documents: dict[int, FrozenDict] = {}
        self._next_id = 1
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        # Writes are multi-step (id counter, document map, every index);
        # serializing them makes each write — in particular the
        # compare-and-set of :meth:`update_if` — atomic with respect to
        # other writers.  Readers still coordinate with writers at a higher
        # level (``ResultCache``'s lock, ``DurableJobStore``'s lock) as
        # before.
        self._write_lock = threading.RLock()
        # Engine hooks (see :meth:`bind_engine`): a WAL-backed database
        # wraps every mutation in its cross-process critical section and
        # journals the resulting op; unbound collections (unit tests,
        # the in-memory engine) mutate locally with no extra cost.
        self._engine_guard: Callable[[], ContextManager[None]] | None = None
        self._engine_journal: Callable[[Any], None] | None = None

    # -- store-engine integration --------------------------------------------

    def bind_engine(
        self,
        guard: Callable[[], ContextManager[None]],
        journal: Callable[[Any], None],
    ) -> None:
        """Attach this collection to a journaling store engine.

        ``guard()`` brackets every mutation (the database's exclusive
        section: lock + refresh on entry, commit on exit); ``journal(op)``
        stages one WAL op (see :meth:`apply_wal_record`) describing a
        mutation that just happened.
        """
        self._engine_guard = guard
        self._engine_journal = journal

    def _engine(self) -> ContextManager[None]:
        return self._engine_guard() if self._engine_guard is not None else nullcontext()

    def _journal(self, op: Any) -> None:
        if self._engine_journal is not None:
            self._engine_journal(op)

    def _journal_put(self, doc_id: int) -> None:
        """Journal the current stored version of one document (upsert)."""
        self._journal(self._documents[doc_id])

    # -- WAL replay (engine-internal; never journals) -------------------------

    def apply_wal_record(self, op: Any) -> None:
        """Apply one replayed WAL op to the in-memory state.

        A put is the stored document itself (it carries its ``_id``); every
        other op is a list naming its kind: ``["del", ids]``, ``["index",
        path, kind]`` and ``["next", id_floor]``.  Puts dominate a log, so
        they cost no bytes beyond the document.  Unknown kinds are skipped,
        not fatal — an older binary replaying a newer log must not corrupt
        what it *can* understand.
        """
        if isinstance(op, Mapping):
            self._replay_put(op)
            return
        kind = op[0]
        if kind == "del":
            self._replay_delete(op[1])
        elif kind == "index":
            with self._write_lock:
                self._create_index(str(op[1]), str(op[2]))
        elif kind == "next":
            with self._write_lock:
                self._next_id = max(self._next_id, int(op[1]))

    def _replay_put(self, document: Mapping[str, Any]) -> None:
        doc = freeze(document)
        doc_id = int(doc["_id"])
        with self._write_lock:
            if doc_id in self._documents:
                self._unindex(doc_id)
            self._documents[doc_id] = doc
            self._index(doc_id, doc)
            if doc_id >= self._next_id:
                self._next_id = doc_id + 1

    def _replay_delete(self, doc_ids: Iterable[int]) -> None:
        with self._write_lock:
            for doc_id in doc_ids:
                doc_id = int(doc_id)
                if doc_id in self._documents:
                    self._unindex(doc_id)
                    del self._documents[doc_id]
                # Tombstones also pin the id space: a replayed deletion of
                # the max id must not let a later insert reuse it.
                if doc_id >= self._next_id:
                    self._next_id = doc_id + 1

    def _reset_documents(self) -> None:
        self._documents.clear()
        for path in list(self._hash_indexes):
            self._hash_indexes[path] = HashIndex(path)
        for path in list(self._sorted_indexes):
            self._sorted_indexes[path] = SortedIndex(path)

    def reset_state(self) -> None:
        """Forget all replayed state ahead of a from-zero log replay (a
        peer compacted the store log).  Index *definitions* survive — the
        fresh log re-declares them anyway and local callers may hold
        queries planned against them."""
        with self._write_lock:
            self._reset_documents()
            self._next_id = 1

    # -- index management ---------------------------------------------------

    def _create_index(self, path: str, kind: str) -> bool:
        """Create an index; returns whether one was actually created."""
        if kind == "hash":
            if path in self._hash_indexes:
                return False
            index = HashIndex(path)
            for doc_id, document in self._documents.items():
                index.insert(doc_id, document)
            self._hash_indexes[path] = index
            return True
        elif kind == "sorted":
            if path in self._sorted_indexes:
                return False
            sindex = SortedIndex(path)
            for doc_id, document in self._documents.items():
                sindex.insert(doc_id, document)
            self._sorted_indexes[path] = sindex
            return True
        else:
            raise ValueError(f'index kind must be "hash" or "sorted", got {kind!r}')

    def create_index(self, path: str, kind: str = "hash") -> None:
        """Create a secondary index over a dotted field path.

        Existing documents are back-filled.  Creating the same index twice
        is a no-op (and journals nothing).
        """
        with self._engine():
            with self._write_lock:
                if self._create_index(path, kind):
                    self._journal(["index", path, kind])

    def indexes(self) -> dict[str, list[str]]:
        return {
            "hash": sorted(self._hash_indexes),
            "sorted": sorted(self._sorted_indexes),
        }

    # -- writes ---------------------------------------------------------------

    def insert_one(self, document: Mapping[str, Any]) -> int:
        """Insert a document; returns its assigned ``_id``.

        Under a WAL engine the id is assigned *inside* the exclusive
        section — entry replays peers' appends first, so the counter is
        past every id any process ever used (tombstones included).
        """
        if not isinstance(document, Mapping):
            raise TypeError(f"document must be a mapping, got {type(document).__name__}")
        frozen = _frozen(document)
        with self._engine():
            with self._write_lock:
                doc_id = self._next_id
                self._next_id += 1
                doc = FrozenDict(frozen, _id=doc_id)
                self._documents[doc_id] = doc
                for index in self._hash_indexes.values():
                    index.insert(doc_id, doc)
                for sindex in self._sorted_indexes.values():
                    sindex.insert(doc_id, doc)
                self._journal_put(doc_id)
        return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[int]:
        # Frozen before the section, which then only stages the batch.
        frozen = [_frozen(doc) for doc in documents]
        with self._engine():  # one critical section (and one fsync) for the batch
            return [self.insert_one(doc) for doc in frozen]

    def replace_one(self, query: Mapping[str, Any], document: Mapping[str, Any]) -> int | None:
        """Replace the first matching document (keeping its ``_id``).

        Returns the ``_id`` of the replaced document, or ``None`` if no
        document matched.
        """
        frozen = _frozen(document)
        with self._engine():
            with self._write_lock:
                found = self.find_one(query)
                if found is None:
                    return None
                doc_id = found["_id"]
                self._unindex(doc_id)
                doc = FrozenDict(frozen, _id=doc_id)
                self._documents[doc_id] = doc
                self._index(doc_id, doc)
                self._journal_put(doc_id)
                return doc_id

    def update_one(self, query: Mapping[str, Any], changes: Mapping[str, Any]) -> int | None:
        """Set top-level fields on the first matching document."""
        with self._engine():
            with self._write_lock:
                found = self.find_one(query)
                if found is None:
                    return None
                doc_id = self._apply_changes(found["_id"], changes)
                self._journal_put(doc_id)
                return doc_id

    def update_if(
        self,
        query: Mapping[str, Any],
        expected: Mapping[str, Any],
        changes: Mapping[str, Any],
    ) -> int | None:
        """Compare-and-set: update the first ``query`` match only if it
        *still* matches ``expected``.

        ``expected`` uses the same query language as ``find`` and is
        evaluated against the matched document inside the write lock, so
        check and update are one atomic step — the primitive lease-based
        job claiming is built on (two workers CAS-ing the same queued job
        cannot both win).

        Returns the updated document's ``_id``, or ``None`` when nothing
        matched ``query`` or the ``expected`` condition no longer held.
        """
        with self._engine():
            with self._write_lock:
                found = self.find_one(query)
                if found is None or not matches(found, expected):
                    return None
                doc_id = self._apply_changes(found["_id"], changes)
                self._journal_put(doc_id)
                return doc_id

    def _apply_changes(self, doc_id: int, changes: Mapping[str, Any]) -> int:
        """Copy-on-write: swap in a new frozen document with ``changes`` set."""
        if "_id" in changes:
            raise QueryError("_id is immutable")
        doc = FrozenDict({**self._documents[doc_id], **_frozen(changes)})
        self._unindex(doc_id)
        self._documents[doc_id] = doc
        self._index(doc_id, doc)
        return doc_id

    def delete_many(self, query: Mapping[str, Any]) -> int:
        """Delete all matching documents; returns the count.

        Journaled as one tombstone op listing the dead ids — replayed
        by every process sharing the log, which is what makes deletion a
        first-class multi-writer operation rather than a race against
        peers' refreshes.
        """
        with self._engine():
            with self._write_lock:
                doc_ids = [doc["_id"] for doc in self.find(query)]
                for doc_id in doc_ids:
                    self._unindex(doc_id)
                    del self._documents[doc_id]
                if doc_ids:
                    self._journal(["del", doc_ids])
                return len(doc_ids)

    def _unindex(self, doc_id: int) -> None:
        for index in self._hash_indexes.values():
            index.remove(doc_id)
        for sindex in self._sorted_indexes.values():
            sindex.remove(doc_id)

    def _index(self, doc_id: int, doc: Mapping[str, Any]) -> None:
        for index in self._hash_indexes.values():
            index.insert(doc_id, doc)
        for sindex in self._sorted_indexes.values():
            sindex.insert(doc_id, doc)

    # -- reads ----------------------------------------------------------------

    def _term_ids(self, key: str, condition: Any) -> set[int] | None:
        """Exactly the ids matching one equality or ``$in`` term, read off
        the field's hash index; ``None`` when the index cannot answer it.

        Equality with None matches the documents the index leaves out
        (field missing or None).  A ``$in`` holding None, or an unhashable
        probe, needs a scan.
        """
        index = self._hash_indexes.get(key)
        if index is None:
            return None
        if is_operator_spec(condition):
            if set(condition) != {"$in"} or None in condition["$in"]:
                return None
            values = condition["$in"]
        elif condition is None:
            return self._documents.keys() - index.ids()
        else:
            values = (condition,)
        try:
            return set().union(*(index.lookup(value) for value in values))
        except TypeError:
            return None

    def _candidate_ids(self, query: Mapping[str, Any]) -> Iterable[int] | None:
        """Narrow the scan with the first term an index answers.

        Returns ``None`` when no index applies (full scan).  Index results
        are a superset-of-matches *for that term*, so the final predicate is
        always re-applied.
        """
        for key, condition in query.items():
            ids = self._term_ids(key, condition)
            if ids is not None:
                return ids
            sindex = self._sorted_indexes.get(key)
            if sindex is not None and is_operator_spec(condition) and "$in" not in condition:
                return list(
                    sindex.range(
                        condition.get("$gte", condition.get("$gt")),
                        condition.get("$lte", condition.get("$lt")),
                        include_low="$gte" in condition or "$gt" not in condition,
                        include_high="$lte" in condition or "$lt" not in condition,
                    )
                )
        return None

    def _exact_ids(self, query: Mapping[str, Any]) -> set[int] | None:
        """The matching ids read straight off hash indexes, or ``None``.

        Answers queries whose every term :meth:`_term_ids` answers: index
        membership then *is* the predicate, so no document is visited.
        """
        matched: set[int] | None = None
        for key, condition in query.items():
            ids = self._term_ids(key, condition)
            if ids is None:
                return None
            matched = ids if matched is None else matched & ids
        return matched

    def _matching_ids(self, query: Mapping[str, Any]) -> Iterable[int]:
        """Ids of the documents matching ``query``, in no particular order."""
        predicate = compile_query(query)  # validates, even when unused
        exact = self._exact_ids(query)
        if exact is not None:
            return exact
        candidates = self._candidate_ids(query)
        if candidates is None:
            candidates = list(self._documents)
        documents = self._documents
        return [
            doc_id
            for doc_id in candidates
            if doc_id in documents and predicate(documents[doc_id])
        ]

    def find(
        self,
        query: Mapping[str, Any] | None = None,
        sort: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """All matching documents, optionally sorted/limited.

        The returned documents are the stored, read-only objects themselves
        (see the module docstring); ``thaw()`` one to edit it.

        ``sort`` is a dotted field path; documents missing the field sort
        last regardless of direction.
        """
        documents = self._documents
        results = [
            documents[doc_id]
            for doc_id in self._matching_ids(query or {})
            if doc_id in documents  # a concurrent delete may have won
        ]
        if sort is not None:
            present = [d for d in results if get_path(d, sort) is not MISSING]
            absent = [d for d in results if get_path(d, sort) is MISSING]
            present.sort(key=lambda d: get_path(d, sort), reverse=descending)
            results = present + absent
        else:
            results.sort(key=lambda d: d["_id"])
        if limit is not None:
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
            results = results[:limit]
        return results

    def find_one(self, query: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        found = self.find(query, limit=1)
        return found[0] if found else None

    def count(self, query: Mapping[str, Any] | None = None) -> int:
        if not query:
            return len(self._documents)
        return len(self._matching_ids(query))

    def max(self, path: str) -> Any:
        """The largest value under ``path``, read off its sorted index in
        O(1); ``None`` when no document holds one."""
        return self._sorted_indexes[path].max()

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.find())

    # -- persistence hooks (used by Database) ----------------------------------

    def dump(self) -> dict[str, Any]:
        """Serialisable snapshot (documents + index definitions).

        Taken under the write lock so a snapshot never observes a
        half-applied write (compaction dumps the live state while
        claim-loop threads are still transitioning other jobs).
        """
        with self._write_lock:
            return {
                "name": self.name,
                "next_id": self._next_id,
                "documents": list(self._documents.values()),
                "indexes": self.indexes(),
            }

    @classmethod
    def load(cls, snapshot: Mapping[str, Any]) -> "Collection":
        collection = cls(str(snapshot["name"]))
        for kind in ("hash", "sorted"):
            for path in snapshot.get("indexes", {}).get(kind, []):
                collection.create_index(path, kind)
        for document in snapshot.get("documents", []):
            collection._replay_put(document)
        collection._next_id = max(collection._next_id, int(snapshot.get("next_id", 1)))
        return collection
