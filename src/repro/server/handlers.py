"""The server state behind the ``/api/v1`` routes.

The HTTP surface is the versioned resource API registered by
:mod:`repro.server.api_v1`, whose route handlers parse their requests and
build their bodies themselves.  This module keeps the one thing they
share: :class:`ServerState` — store, cache, upload sessions, job queue.

Job runners are not built here: :meth:`ServerState.runner_for_job` looks
a claimed job's kind up and calls that kind's builder
(:mod:`repro.jobs.distributed`, :mod:`repro.stream.runner`).

Stored CAP results are read, written and decoded only through
``ServerState.cache`` (:class:`~repro.cache.ResultCache`); handlers ask it
for documents, metadata and the memoized decoded result.

Upload protocol (Section 3.2):

1. ``POST .../upload/begin`` — JSON body with the contents of
   ``location.csv`` and ``attribute.csv``;
2. ``POST .../upload/chunk`` — one ≤10,000-line piece of ``data.csv`` per
   request (text body);
3. ``POST .../upload/finish`` — validate, assemble, store.

Upload sessions are serialized behind ``ServerState.lock`` (the threaded
WSGI server runs handlers concurrently); beginning an upload for a name
whose session is already open is a 409, and ``.../upload/abort`` discards a
session (e.g. after a rejected chunk).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping, NamedTuple

from ..cache.cache import ResultCache
from ..cache.keys import cache_key
from ..core.miner import MiningResult
from ..core.parameters import MiningParameters
from ..core.types import SensorDataset
from ..data.csv_io import ChunkAssembler
from ..data.documents import dataset_from_document, dataset_to_document
from ..jobs import (
    KIND_MERGE,
    KIND_MINE,
    KIND_SHARD,
    KIND_STREAM,
    TERMINAL_STATES,
    DurableJobStore,
    Job,
    JobQueue,
    JobStateError,
    distributed,
)
from ..store.database import Database
from ..stream import (
    ALERT_RULES,
    CAP_EVENTS,
    FEED_SNAPSHOTS,
    OBSERVATIONS,
    STREAM_CONFIG,
    STREAM_OPEN_RULE,
    purge_stream,
    stream_runner,
)
from .http import HTTPError

__all__ = ["ServerState"]

_DATASETS = "datasets"
_GENERATIONS = "generations"

#: Each job kind's runner builder, ``builder(state, job) -> runner``, from
#: the kind's own module.
_RUNNERS = {
    KIND_MINE: distributed.mine_runner,
    KIND_SHARD: distributed.shard_runner,
    KIND_MERGE: distributed.merge_runner,
    KIND_STREAM: stream_runner,
}


def _no_upload(name: str) -> HTTPError:
    return HTTPError(
        409, f"no upload in progress for dataset {name!r}", code="no_upload_in_progress"
    )


class _Memo(NamedTuple):
    """A dataset decoded from one stored document.

    Stored documents are frozen and every write swaps in a new object, so
    the entry is current exactly while ``document`` *is* the stored one —
    identity is the version check, also across processes sharing a store.
    """

    document: Mapping[str, Any]
    value: Any


class _UploadSession(NamedTuple):
    """One open chunked upload: its assembler, the parsed ``location.csv``
    and ``attribute.csv``, and the lock its chunks serialize on.

    Chunks of one session must serialize (the assembler's row stream would
    interleave), but CSV parsing must not happen under the global
    ``ServerState.lock`` — one client streaming a big upload would stall
    every other handler.
    """

    assembler: ChunkAssembler
    locations: list
    attributes: list
    lock: threading.Lock


class ServerState:
    """Shared state behind the handlers: store, cache, uploads, job queue.

    With the threaded WSGI server and the job claim loops, handlers run
    concurrently; ``self.lock`` guards the in-memory mutable state
    (the decoded-dataset memo, upload sessions); the result cache guards
    its own memo.  Mining itself never holds the lock — only the
    bookkeeping around it does.

    The job registry is a :class:`~repro.jobs.DurableJobStore` over the
    backing database: jobs live in its ``jobs`` collection.  Bound to a
    store path, every transition is a WAL append and any number of server
    processes sharing the store claim work through leases; an in-memory
    database keeps the same registry, sub-jobs and stream jobs
    process-local.  Submissions only open jobs; ``job_workers`` claim-loop
    threads claim every job — whichever process enqueued it — and run the
    work :meth:`runner_for_job` builds from its stored document, looking
    for work every ``worker_poll`` seconds when idle.
    """

    def __init__(
        self,
        database: Database | None = None,
        job_workers: int = 2,
        worker_poll: float = 1.0,
        worker_id: str | None = None,
        lease_seconds: float = 30.0,
        max_attempts: int = 5,
        stream_retention: Mapping[str, Any] | None = None,
    ) -> None:
        self.database = database if database is not None else Database()
        self.cache = ResultCache(self.database)
        self.database.collection(_DATASETS).create_index("name", "hash")
        # Dataset generations live in the store (on the WAL engine each
        # bump is a log record), so a re-upload on one server process
        # withdraws results mid-mine on every process sharing the store.
        self.database.collection(_GENERATIONS).create_index("name", "hash")
        # Stream subsystem lookups (batch replay, event dedup, feed reads).
        self.database.collection(OBSERVATIONS).create_index("batch_id", "hash")
        self.database.collection(OBSERVATIONS).create_index("dataset", "hash")
        self.database.collection(CAP_EVENTS).create_index("event_id", "hash")
        self.database.collection(CAP_EVENTS).create_index("dataset", "hash")
        # Feed tail reads are range queries past the poll cursor; the
        # sorted index turns each long-poll beat into a tail touch
        # instead of a full collection scan.
        self.database.collection(CAP_EVENTS).create_index("seq", "sorted")
        self.database.collection(ALERT_RULES).create_index("rule_id", "hash")
        self.database.collection(FEED_SNAPSHOTS).create_index("dataset", "hash")
        self.database.collection(STREAM_CONFIG).create_index("name", "hash")
        #: Server-wide retention default (``--stream-retention``); merged
        #: under per-dataset ``stream_config`` documents by
        #: :func:`repro.stream.get_retention`.  None = retention opt-in
        #: per dataset only.
        self.stream_default_retention = (
            dict(stream_retention) if stream_retention else None
        )
        self.lock = threading.RLock()
        self._uploads: dict[str, _UploadSession] = {}
        # Decoded datasets per name (see ``_Memo``); decoded results are
        # memoized by ``self.cache``.
        self._loaded: dict[str, _Memo] = {}
        # Last: the claim loops start here and may build a runner at once.
        self.jobs = JobQueue(
            DurableJobStore(
                self.database,
                worker_id=worker_id,
                lease_seconds=lease_seconds,
                max_attempts=max_attempts,
            ),
            self.runner_for_job,
            width=job_workers,
            poll_seconds=worker_poll,
        )

    # -- upload sessions ------------------------------------------------------

    def begin_upload(self, name: str, locations: list, attributes: list) -> None:
        """Open the chunked-upload session for ``name``.

        One session per name: a concurrent ``begin`` while a session is
        open is a 409 (two interleaved uploaders would corrupt each other's
        chunk stream).  Sessions end at ``finish`` or ``abort``.
        """
        with self.lock:
            if name in self._uploads:
                raise HTTPError(
                    409,
                    f"an upload for dataset {name!r} is already in progress; "
                    f"finish or abort it first",
                    code="upload_in_progress",
                )
            self._uploads[name] = _UploadSession(
                ChunkAssembler(name), locations, attributes, threading.Lock()
            )

    def append_upload_chunk(self, name: str, text: str) -> tuple[int, int, int]:
        """Add one data.csv chunk; returns (chunks, rows_in_chunk, rows_total).

        Chunks of one session serialize on the *session* lock; the global
        lock is held only for the registry lookup, so parsing a chunk never
        blocks handlers for other datasets.
        """
        with self.lock:
            session = self._uploads.get(name)
        if session is None:
            raise _no_upload(name)
        assembler = session.assembler
        with session.lock:
            rows = assembler.add_chunk(text)
            return assembler.chunks_received, rows, assembler.rows_received

    def finish_upload(self, name: str) -> SensorDataset:
        """Close the session, validate and store the assembled dataset."""
        with self.lock:
            session = self._uploads.pop(name, None)
        if session is None:
            raise _no_upload(name)
        # Assembly runs outside the global lock — it scales with the
        # dataset, and the session is already detached from the registry.
        # Taking the session lock first lets an in-flight chunk parse
        # complete before the rows are assembled.
        with session.lock:
            dataset = session.assembler.finish(session.locations, session.attributes)
        self.put_dataset(dataset)
        return dataset

    def abort_upload(self, name: str) -> None:
        """Discard the open session for ``name``; 409 when there is none."""
        with self.lock:
            session = self._uploads.pop(name, None)
        if session is None:
            raise _no_upload(name)

    # -- dataset registry -----------------------------------------------------

    def dataset_names(self) -> list[str]:
        """Every stored dataset's name; refreshes first, like :meth:`get_dataset`."""
        self.jobs.store.refresh()
        return sorted(
            doc["name"] for doc in self.database[_DATASETS].find()
        )

    def get_dataset(self, name: str) -> SensorDataset:
        """The stored dataset, decoded once per stored version.

        Refreshes the store view first: another process sharing the store
        may have uploaded, replaced or deleted it.
        """
        self.jobs.store.refresh()
        document = self.database[_DATASETS].find_one({"name": name})
        if document is None:
            raise HTTPError(404, f"unknown dataset {name!r}", code="unknown_dataset")
        with self.lock:
            memo = self._loaded.get(name)
            if memo is not None and memo.document is document:
                return memo.value
        dataset = dataset_from_document(document["dataset"])
        with self.lock:
            self._loaded[name] = _Memo(document, dataset)
        return dataset

    def put_dataset(self, dataset: SensorDataset) -> None:
        """Store ``dataset`` and :meth:`_supersede` the replaced one in one
        critical section: no process sharing the store ever sees the new
        data beside CAPs or feed events mined from the old."""
        collection = self.database[_DATASETS]
        document = {"name": dataset.name, "dataset": dataset_to_document(dataset)}
        with self.database.exclusive():
            if collection.replace_one({"name": dataset.name}, document) is None:
                collection.insert_one(document)
            stored = collection.find_one({"name": dataset.name})
            self._supersede(dataset.name)
        with self.lock:
            self._loaded[dataset.name] = _Memo(stored, dataset)
        self._cancel_dataset_jobs(dataset.name)

    def delete_dataset(self, name: str) -> bool:
        """Delete a dataset; only an *actual* delete invalidates anything.

        Deleting a name that was never uploaded must not bump the dataset
        generation or cancel its jobs — a stray DELETE for a typo'd name
        would otherwise withdraw in-flight mining results for nothing.
        """
        with self.database.exclusive():
            if not self.database[_DATASETS].delete_many({"name": name}):
                return False
            self._supersede(name)
        with self.lock:
            self._loaded.pop(name, None)
        self._cancel_dataset_jobs(name)
        return True

    def _supersede(self, name: str) -> None:
        """Bump ``name``'s generation, drop its cached CAPs, purge its stream
        (inside the section that replaced or deleted the dataset)."""
        generations = self.database[_GENERATIONS]
        changes = {"generation": self.dataset_generation(name, refresh=False) + 1}
        if generations.update_one({"name": name}, changes) is None:
            generations.insert_one({"name": name, **changes})
        self.cache.invalidate_dataset(name)
        purge_stream(self.database, name)

    def _cancel_dataset_jobs(self, dataset_name: str) -> None:
        """In-flight top-level jobs (mines, the stream job) for a
        replaced/deleted dataset are obsolete; a distributed parent's
        cancellation reaches its sub-jobs."""
        store = self.jobs.store
        for job in store.list(kind=None):
            if (
                job.parent_id is None
                and job.dataset == dataset_name
                and job.state not in TERMINAL_STATES
            ):
                try:
                    store.request_cancel(job.job_id)
                except (KeyError, JobStateError):
                    pass  # finished in the meantime — its write checked the generation

    def dataset_generation(self, name: str, *, refresh: bool = True) -> int:
        """The current generation of ``name`` (0 until first upload).

        Refreshes the store view first, so a re-upload made by another
        process counts; ``refresh=False`` reads the view as it stands
        (inside ``Database.exclusive()``, or paired with documents just
        read from the same view).
        """
        if refresh:
            self.jobs.store.refresh()
        document = self.database.collection(_GENERATIONS).find_one({"name": name})
        return int(document["generation"]) if document else 0

    def current_dataset(
        self, name: str
    ) -> tuple[SensorDataset, int, Callable[[], bool]]:
        """The stored dataset, its generation, and a ``still_current()`` check
        for the writes derived from it.  The generation is read first: a
        re-upload between the two reads fails the check instead of pairing
        the replaced data with the new generation."""
        generation = self.dataset_generation(name)
        return self.get_dataset(name), generation, self.still_current(name, generation)

    def still_current(self, name: str, generation: int) -> Callable[[], bool]:
        """A check that ``name`` is still at ``generation``, run only inside
        ``Database.exclusive()`` (whose entry replays peers' records).  It
        never refreshes: that takes the registry lock under the store lock,
        the reverse of ``DurableJobStore._exclusive``."""
        return lambda: self.dataset_generation(name, refresh=False) == generation

    # -- result resources -------------------------------------------------------

    def get_result_document(self, key: str) -> Mapping[str, Any]:
        """The stored result document for one key; 404 when absent.

        Refreshes the store view first — another process may have
        published, replaced or deleted the result — so the caller can read
        the matching dataset generation from the same view.
        """
        self.jobs.store.refresh()
        document = self.cache.document(key)
        if document is None:
            raise HTTPError(404, f"unknown result {key!r}", code="unknown_result")
        return document

    def result_from_document(self, document: Mapping[str, Any]) -> MiningResult:
        """The result stored in ``document``, decoded once per stored version."""
        return self.cache.decode(document)

    # -- async mining jobs ------------------------------------------------------

    def submit_mine_job(
        self,
        dataset: SensorDataset,
        params: MiningParameters,
        distributed: bool = False,
        plan_workers: int | None = None,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Open (or dedup onto) the async mining job for (dataset, params).

        Only writes the job: a claim loop claims it and builds its runner
        with :meth:`runner_for_job`.  The runner mines in its loop thread's
        worker process and stores through the same :class:`ResultCache`
        with the dataset's ``still_current`` check, so async-mined CAPs
        land in the same stored result documents that result reads and map
        clicks use, and never from replaced data.

        ``distributed=True`` opens the job as a distributed *parent*: its
        claimed execution is the planner, which splits the mine into shard
        sub-jobs + a merge sub-job that any process's claim loop can claim
        under its own lease.
        """
        return self.jobs.submit(
            dataset.name,
            params.to_document(),
            cache_key(dataset.name, params),
            distributed=distributed,
            plan_workers=plan_workers,
            trace_id=trace_id,
        )

    def submit_stream_job(
        self,
        dataset: SensorDataset,
        params: MiningParameters,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Open (or dedup onto) the resident streaming-miner job.

        ``mode=streaming`` turns the (dataset, parameters) pair into a
        long-lived ``stream`` job: it mines the epoch-0 baseline, then
        drains observation batches as they are appended, re-mining
        incrementally and publishing CAP deltas to the change feed (see
        :mod:`repro.stream`).  One per dataset — resubmission dedups onto
        the live job.  Residency is implemented as lease-claim/release
        cycles; on a store path, recovery replays the WAL-backed
        observation log.
        """
        if params.segmentation != "none":
            raise HTTPError(
                400,
                "mode=streaming requires segmentation='none': smoothing is a "
                "whole-series operation and cannot be maintained incrementally",
                code="invalid_parameters",
            )
        return self.jobs.submit(
            dataset.name,
            params.to_document(),
            cache_key(dataset.name, params),
            trace_id=trace_id,
            **STREAM_OPEN_RULE,
        )

    def runner_for_job(self, job: Job):
        """Build a claimed job's work from its stored document.

        The claim loop's runner factory: every job — whichever process
        enqueued it — is rebuilt from its stored kind, dataset name and
        canonical parameters by its kind's builder (:data:`_RUNNERS`).
        Raising here (e.g. the dataset document is gone) fails the job
        with the structured error.
        """
        return _RUNNERS[job.kind](self, job)
