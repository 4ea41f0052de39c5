"""The CAP result cache (Section 3.3): the one owner of stored results.

"Before computing CAPs by Miscela, our system searches for CAPs with the
same parameters and the name of the dataset from the database."  This module
implements exactly that: :class:`ResultCache` sits between callers and a
miner, storing :class:`~repro.core.miner.MiningResult` documents in the
``cap_results`` collection of a :class:`~repro.store.Database`, keyed by the
canonical hash of (dataset name, parameters).

It is the only code that reads, writes or decodes that collection.  A
stored document is ``{"key", "payload": {"dataset", "parameters"},
"result"}``, where ``result`` is the ``"encoding": 2`` columnar layout of
:mod:`repro.core.result_columns`: plain ``dataset``, ``parameters``,
``elapsed_seconds`` and ``num_caps`` fields beside base64 CAP columns; any
other result raises a ``ValueError`` naming ``repro store upgrade``, which
rewrites older ones (:mod:`repro.store.upgrade`).  Callers get documents through
:meth:`ResultCache.document` / :meth:`ResultCache.documents`, their
metadata through :meth:`ResultCache.metadata`, and the decoded result
through :meth:`ResultCache.decode`.  A decoded result's CAPs are a
:class:`~repro.core.result_columns.ResultTable` over the stored columns:
each column is unpacked on its first use, and a page, a sensor filter or a
map click builds CAP documents (or CAPs) for the rows it returns only.
Decoding is memoized per stored version: a memo entry holds the document
it was decoded from, and stored documents are frozen and replaced (never
edited) on every write, so the entry is current exactly while that
document *is* the stored one — also across processes sharing a store.
``get``, ``mine_cached`` hits, CAP pages and map clicks therefore share one
table, and the memo keeps at most :data:`MEMO_CAPACITY` decoded results.
Both writes seed the memo, so no read of a result this process stored
decodes: :meth:`ResultCache.put` packs the mined table's columns and seeds
the memo with that table, and :meth:`ResultCache.put_encoded`, which
stores a result a worker process mined and encoded with
:meth:`ResultCache.encode`, seeds it with a table over the stored columns.

``mine_cached`` is the interactive-analysis entry point: a hit replays the
stored result (``from_cache=True``), a miss runs the miner and stores the
outcome.  Statistics (hits/misses/evictions) feed ``/admin/stats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.miner import MiningResult, MiscelaMiner
from ..core.parallel import MiningCancelled
from ..core.parameters import MiningParameters
from ..core.result_columns import ResultTable, require_encoding, result_to_columns
from ..core.types import SensorDataset
from ..obs.metrics import get_registry
from ..store.database import Database
from ..store.frozen import freeze
from .keys import cache_key, canonical_payload

__all__ = ["MEMO_CAPACITY", "CacheStats", "ResultCache"]

_COLLECTION = "cap_results"

#: Decoded results one cache keeps in memory: a browsing session's working
#: set, while a parameter sweep cannot pin every result in RAM.
MEMO_CAPACITY = 32

# Process-wide counters next to the per-instance CacheStats: the stats
# object feeds /admin/stats per cache, these feed the Prometheus scrape.
_HITS = get_registry().counter(
    "repro_cache_hits_total", "Result-cache lookups served from the store."
)
_MISSES = get_registry().counter(
    "repro_cache_misses_total", "Result-cache lookups that found nothing."
)
_EVICTIONS = get_registry().counter(
    "repro_cache_evictions_total",
    "Decoded results dropped from the memo by its size bound.",
)
_INVALIDATIONS = get_registry().counter(
    "repro_cache_invalidations_total",
    "Cached results dropped by dataset invalidation.",
)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class ResultCache:
    """Parameter-keyed cache of mining results backed by the document store."""

    #: The store collection every result lives in.
    COLLECTION = _COLLECTION

    def __init__(self, database: Database) -> None:
        self.database = database
        self.stats = CacheStats()
        # Guards the stats and the decode memo; the threaded server and the
        # job claim loops share one cache.  Store writes serialize in
        # ``database.exclusive()``, and decoding runs outside both.
        self._lock = threading.Lock()
        #: key -> (stored document, its decoded result), oldest use first.
        self._memo: OrderedDict[str, tuple[Mapping[str, Any], MiningResult]] = (
            OrderedDict()
        )
        collection = database.collection(_COLLECTION)
        collection.create_index("key", "hash")
        collection.create_index("payload.dataset", "hash")

    # -- reads ----------------------------------------------------------------

    def document(self, key: str) -> Mapping[str, Any] | None:
        """The stored document for one cache key, or None."""
        return self.database[_COLLECTION].find_one({"key": key})

    def documents(self, dataset_name: str | None = None) -> list[Mapping[str, Any]]:
        """Every stored document (mined from one dataset, if named), oldest first."""
        query = {} if dataset_name is None else {"payload.dataset": dataset_name}
        return self.database[_COLLECTION].find(query)

    @staticmethod
    def metadata(document: Mapping[str, Any]) -> dict[str, Any]:
        """Identity and shape of one stored result — never its CAP list."""
        result = document["result"]
        return {
            "key": str(document["key"]),
            "dataset": str(document["payload"]["dataset"]),
            "parameters": document["payload"]["parameters"],
            "num_caps": _num_caps(result),
            "elapsed_seconds": result.get("elapsed_seconds", 0.0),
        }

    def caps_by_dataset(self) -> dict[str, dict[str, int]]:
        """Per dataset: the stored parameter settings and their total CAPs."""
        per_dataset: dict[str, dict[str, int]] = {}
        for document in self.documents():
            row = per_dataset.setdefault(
                document["payload"]["dataset"], {"settings": 0, "total_caps": 0}
            )
            row["settings"] += 1
            row["total_caps"] += _num_caps(document["result"])
        return per_dataset

    def decode(self, document: Mapping[str, Any]) -> MiningResult:
        """The result stored in ``document``, decoded once per stored version."""
        key = str(document["key"])
        with self._lock:
            memo = self._memo.get(key)
            if memo is not None and memo[0] is document:
                self._memo.move_to_end(key)
                return memo[1]
        # Decode outside the lock — it can be slow for big results.
        result = MiningResult.from_document(document["result"])
        with self._lock:
            self._remember(key, document, result)
        return result

    def _remember(
        self, key: str, document: Mapping[str, Any], result: MiningResult
    ) -> None:
        """Memoize ``result`` as the decode of ``document`` (under the lock)."""
        self._memo[key] = (document, result)
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_CAPACITY:
            self._memo.popitem(last=False)
            self.stats.evictions += 1
            _EVICTIONS.inc()

    def get(self, dataset_name: str, params: MiningParameters) -> MiningResult | None:
        """The cached result for (dataset, params), or None."""
        document = self.document(cache_key(dataset_name, params))
        with self._lock:
            if document is None:
                self.stats.misses += 1
                _MISSES.inc()
                return None
            self.stats.hits += 1
            _HITS.inc()
        return self.decode(document)

    # -- writes ---------------------------------------------------------------

    def put(
        self, result: MiningResult, *, current: Callable[[], bool] | None = None
    ) -> str:
        """Store a mining result; returns its cache key.

        Packs the result's table, stores it as :meth:`put_encoded` does,
        and seeds the decode memo with what :meth:`decode` would return for
        the stored document: a result sharing this table,
        ``from_cache=True``, without evolving sets or the proximity graph.
        So the first CAP page after a mine in this process decodes nothing.
        """
        key, params, document = self._store(self.encode(result), current)
        self._seed(key, document, params, result.caps)
        return key

    @staticmethod
    def encode(result: MiningResult) -> dict[str, Any]:
        """``result`` in the stored ``"encoding": 2`` layout, as
        :meth:`put_encoded` takes it (a worker process encodes with this)."""
        return result_to_columns(result)

    def put_encoded(
        self, columns: Mapping[str, Any], *, current: Callable[[], bool] | None = None
    ) -> str:
        """Store a result :meth:`encode` produced (in a worker process, say);
        returns its cache key.  Seeds the decode memo with a table over the
        stored columns, which unpacks each column on its first read."""
        key, params, document = self._store(columns, current)
        self._seed(key, document, params, ResultTable.from_columns(document["result"]))
        return key

    def _seed(
        self,
        key: str,
        document: Mapping[str, Any],
        params: MiningParameters,
        caps: ResultTable,
    ) -> None:
        """Memoize ``caps`` as the decode of the just-stored ``document``."""
        columns = document["result"]
        replay = MiningResult(
            dataset_name=str(columns["dataset"]),
            parameters=params,
            caps=caps,
            elapsed_seconds=float(columns.get("elapsed_seconds", 0.0)),
            from_cache=True,
        )
        with self._lock:
            self._remember(key, document, replay)

    def _store(
        self, columns: Mapping[str, Any], current: Callable[[], bool] | None
    ) -> tuple[str, MiningParameters, Mapping[str, Any]]:
        """Upsert one encoded result; returns its key, its parameters as
        :meth:`decode` reads them, and the stored document.

        The upsert is one critical section, so two processes (or two apps
        on one store) publishing the same key never both insert.
        ``current`` (optional) checks, inside the section, that the mined
        dataset is still the stored one; if not, nothing is written and
        :class:`MiningCancelled` is raised.
        """
        dataset_name = str(columns["dataset"])
        params = MiningParameters.from_document(columns["parameters"])
        key = cache_key(dataset_name, params)
        # Frozen before the critical section: the upsert's writes then share
        # this document instead of building it under the lock.
        document = freeze({
            "key": key,
            "payload": canonical_payload(dataset_name, params),
            "result": columns,
        })
        collection = self.database[_COLLECTION]
        with self.database.exclusive():
            if current is not None and not current():
                raise MiningCancelled(f"dataset {dataset_name!r} was replaced")
            if collection.replace_one({"key": key}, document) is None:
                collection.insert_one(document)
            return key, params, collection.find_one({"key": key})

    def delete_key(self, key: str) -> None:
        """Drop one cached result by key."""
        self.database[_COLLECTION].delete_many({"key": key})
        with self._lock:
            self._memo.pop(key, None)

    def invalidate_dataset(self, dataset_name: str) -> int:
        """Drop every cached result for one dataset (after re-upload)."""
        removed = self.database[_COLLECTION].delete_many({"payload.dataset": dataset_name})
        with self._lock:
            for key, (_, result) in list(self._memo.items()):
                if result.dataset_name == dataset_name:
                    del self._memo[key]
            self.stats.invalidations += removed
        if removed:
            _INVALIDATIONS.inc(amount=removed)
        return removed

    # -- the interactive-analysis entry point ----------------------------------

    def mine_cached(
        self,
        dataset: SensorDataset,
        params: MiningParameters,
        *,
        current: Callable[[], bool] | None = None,
    ) -> MiningResult:
        """Return cached CAPs when available, otherwise mine and cache.

        Note the cache key uses the *dataset name*, like the paper — callers
        re-uploading different data under the same name must call
        :meth:`invalidate_dataset` in that critical section, and pass
        ``current`` on to :meth:`put` (the server does both).
        """
        cached = self.get(dataset.name, params)
        if cached is not None:
            return cached
        result = MiscelaMiner(params).mine(dataset)
        self.put(result, current=current)
        return result

    def __len__(self) -> int:
        return len(self.database[_COLLECTION])


def _num_caps(result: Mapping[str, Any]) -> int:
    """A stored result's CAP count, read without touching its CAP columns."""
    require_encoding(result)
    return result["num_caps"]
