"""Application assembly — the django-substitute's ``urls.py + settings.py``.

:func:`create_app` wires store → cache → handlers → router → middleware into
a single callable, and :func:`create_wsgi_app` adapts it to WSGI so it runs
under any WSGI server (``wsgiref.simple_server`` in the example).

One route set — the versioned resource API
(:func:`repro.server.api_v1.register_v1_routes`) — runs against one
:class:`ServerState`; every path outside ``/api/v1`` is a 404.

The in-process :class:`TestClient` drives the app without sockets; the
integration tests and the pipeline benchmark use it, which keeps the whole
"system" benchmarkable in-process.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from ..store.compaction import CompactionThread
from ..store.database import Database
from ..stream import sweep_retention
from .api_v1 import register_v1_routes
from .handlers import ServerState
from .http import Request, Response, wsgi_adapter
from .middleware import (
    body_limit_middleware,
    error_middleware,
    logging_middleware,
    metrics_middleware,
    request_id_middleware,
)
from .routing import Router

__all__ = ["App", "TestClient", "create_app", "create_wsgi_app"]

#: Chunks are 10,000 CSV lines; a generous per-request ceiling on top.
DEFAULT_BODY_LIMIT = 4 * 1024 * 1024


class App:
    """The assembled application: a ``Request -> Response`` callable."""

    def __init__(
        self,
        state: ServerState,
        handler: Callable[[Request], Response],
        router: Router,
    ) -> None:
        self.state = state
        self.router = router
        self._handler = handler
        self.compactor: CompactionThread | None = None

    def __call__(self, request: Request) -> Response:
        return self._handler(request)

    def close(self, wait: bool = False) -> None:
        """Stop the background machinery: compaction, then the claim loops.

        ``wait=True`` blocks until the loop threads exit — bounded, because
        shutdown cancels (path-less store) or releases (store path) running
        jobs first and they abort at their next checkpoint.  On a store
        path, queued jobs survive anyway — whichever process next opens the
        store picks them up.
        """
        if self.compactor is not None:
            self.compactor.stop(wait=wait)
        self.state.jobs.shutdown(wait=wait)


def create_app(
    database: Database | None = None,
    body_limit: int = DEFAULT_BODY_LIMIT,
    with_logging: bool = False,
    job_workers: int = 2,
    worker_poll: float = 1.0,
    worker_id: str | None = None,
    lease_seconds: float = 30.0,
    max_attempts: int = 5,
    auto_compact_seconds: float | None = None,
    stream_retention: Mapping[str, object] | None = None,
) -> App:
    """Build the Miscela-V API application.

    Parameters
    ----------
    database:
        Backing store; pass a :class:`Database` opened on a store path for
        persistence across restarts.  The job registry lives in its
        ``jobs`` collection (lease-based multi-process claiming when the
        store has a path); startup recovery runs here, so interrupted
        jobs are requeued before the first request is served.  Defaults
        to in-memory, with a process-local registry.
    body_limit:
        Maximum request body size (enforces the chunked-upload protocol).
    with_logging:
        Attach the request-logging middleware.
    job_workers:
        Number of claim-loop threads.  Every job — async, distributed
        (planner, shards, merge) and resident stream jobs alike, whichever
        process enqueued it — is claimed from the registry and run by one
        of them.  A loop thread only drives a mine: the mining itself may
        fan out further through ``MiningParameters.n_jobs``.
    worker_poll:
        Seconds an idle claim loop waits before looking for work again
        (must be > 0).  A submission to this app wakes a loop at once; the
        beat picks up jobs other processes enqueued, re-claims resting
        stream jobs and backed-off requeues, and reclaims lapsed leases.
    worker_id, lease_seconds:
        Job-registry identity and claim lifetime (see
        :class:`repro.jobs.DurableJobStore`).
    max_attempts:
        Job-registry dead-letter bound: a job (or shard sub-job) that
        loses its worker on this many attempts fails with a structured
        ``AttemptsExhausted`` error instead of requeueing forever
        (``0`` disables the bound).
    auto_compact_seconds:
        Interval of the background compaction sweep (see
        :class:`repro.store.compaction.CompactionThread`).  ``None``
        (default) disables it.  On the WAL engine the sweep rewrites the
        store log; on every engine it additionally runs the stream
        retention pass (:func:`repro.stream.sweep_retention`) for
        datasets with retention configured.
    stream_retention:
        Server-wide default stream retention config (e.g.
        ``{"retention_seqs": 500}``), overridable per dataset through
        ``PATCH /api/v1/datasets/{name}/stream-config``.  ``None``
        (default) keeps retention strictly per-dataset opt-in.
    """
    state = ServerState(
        database,
        job_workers=job_workers,
        worker_poll=worker_poll,
        worker_id=worker_id,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        stream_retention=stream_retention,
    )
    state.jobs.store.recover()
    router = Router()
    register_v1_routes(router, state)
    handler: Callable[[Request], Response] = router.dispatch
    handler = body_limit_middleware(body_limit)(handler)
    if with_logging:
        handler = logging_middleware(handler)
    handler = error_middleware(handler)
    # Outside the error layer: metrics observe the final rendered status,
    # and the request id lands on error envelopes too.
    handler = metrics_middleware(handler)
    handler = request_id_middleware(handler)
    app = App(state, handler, router)
    if auto_compact_seconds is not None:
        # The sweep thread carries two folds: WAL log compaction
        # (engine-gated inside sweep()) and the stream retention pass,
        # which applies on any engine — the feed horizon is a document
        # model property, not a storage-engine one.
        app.compactor = CompactionThread(
            state.database,
            interval_seconds=auto_compact_seconds,
            extra_sweep=lambda: sweep_retention(
                state.database, default=state.stream_default_retention
            ),
        )
        app.compactor.start()
    return app


def create_wsgi_app(
    database: Database | None = None, **kwargs: object
) -> Callable[..., Iterable[bytes]]:
    """The WSGI entry point (``wsgiref.simple_server.make_server`` ready)."""
    return wsgi_adapter(create_app(database, **kwargs))  # type: ignore[arg-type]


class TestClient:
    """Drive an :class:`App` in-process (no sockets)."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, app: App) -> None:
        self.app = app

    def request(
        self,
        method: str,
        url: str,
        json_body: object = None,
        text_body: str | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        import json as _json
        from urllib.parse import parse_qs, urlsplit

        if json_body is not None and text_body is not None:
            raise ValueError("pass json_body or text_body, not both")
        split = urlsplit(url)
        body = b""
        if json_body is not None:
            body = _json.dumps(json_body).encode("utf-8")
        elif text_body is not None:
            body = text_body.encode("utf-8")
        request = Request(
            method=method.upper(),
            path=split.path,
            query=parse_qs(split.query),
            headers={key.lower(): value for key, value in (headers or {}).items()},
            body=body,
        )
        return self.app(request)

    def get(self, url: str, headers: Mapping[str, str] | None = None) -> Response:
        return self.request("GET", url, headers=headers)

    def post(
        self,
        url: str,
        json_body: object = None,
        text_body: str | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        return self.request(
            "POST", url, json_body=json_body, text_body=text_body, headers=headers
        )

    def delete(self, url: str, headers: Mapping[str, str] | None = None) -> Response:
        return self.request("DELETE", url, headers=headers)

    def upload_dataset(self, dataset, chunk_lines: int = 10_000) -> Response:
        """Run the full three-step chunked upload for a dataset object."""
        import csv
        import io

        from ..data.csv_io import dataset_to_rows, iter_chunks
        from ..data.schema import LOCATION_COLUMNS

        data_rows, location_rows = dataset_to_rows(dataset)
        loc_buffer = io.StringIO()
        writer = csv.writer(loc_buffer)
        writer.writerow(LOCATION_COLUMNS)
        for row in location_rows:
            writer.writerow([row.sensor_id, row.attribute, repr(row.lat), repr(row.lon)])
        attr_text = "\n".join(dataset.attributes) + "\n"
        begin = self.post(
            f"/api/v1/datasets/{dataset.name}/upload/begin",
            json_body={
                "location_csv": loc_buffer.getvalue(),
                "attribute_csv": attr_text,
            },
        )
        if begin.status != 201:
            return begin
        for chunk in iter_chunks(data_rows, chunk_lines):
            response = self.post(
                f"/api/v1/datasets/{dataset.name}/upload/chunk", text_body=chunk
            )
            if response.status != 200:
                return response
        return self.post(f"/api/v1/datasets/{dataset.name}/upload/finish")
