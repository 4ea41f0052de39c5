"""The versioned resource-oriented HTTP API: ``/api/v1``.

The server's one HTTP surface.  It models the paper's Figure-2 flow as
resources with durable identities:

* **Datasets** — ``/api/v1/datasets/{name}``: uploaded through the same
  chunked session protocol, now race-safe and abortable.
* **Results** — ``/api/v1/results/{key}``: a mined (dataset, parameters)
  outcome, addressed by its cache key.  ``POST
  /api/v1/datasets/{name}/results`` creates (or dedups onto) one and
  returns ``201 Location: /api/v1/results/{key}`` for sync mining or
  ``202 Location: /api/v1/jobs/{id}`` for async.  Metadata GETs carry an
  ``ETag`` derived from the cache key + the dataset *generation*, so
  conditional requests (``If-None-Match``) revalidate for free with a 304.
* **CAP pages** — ``/api/v1/results/{key}/caps?offset=&limit=&sensor=&attribute=``:
  paginated, filterable slices of the CAP list, served from the memoized
  result object (the sensor filter rides its inverted index) with RFC-5988
  ``Link`` headers for next/prev/first/last.
* **Jobs** — ``/api/v1/jobs/{id}``: the async lifecycle, every
  representation carrying links from submission through the result
  resource.
* **Schema** — ``GET /api/v1/schema``: a generated OpenAPI-style
  description of every registered route (see :mod:`repro.server.schema`);
  `API.md` is rendered from it and CI enforces parity.

Visualization endpoints content-negotiate: ``Accept: image/svg+xml``
returns the bare SVG document, ``text/html`` (the default) the standalone
page.

Every error (on any path) uses the uniform envelope
``{"error": {"code", "message", "detail"}}`` (see
:mod:`repro.server.middleware`).
"""

from __future__ import annotations

import time
from typing import Any, Mapping
from urllib.parse import urlencode

from ..cache.keys import cache_key
from ..core.parallel import MiningCancelled
from ..obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE, get_registry
from ..obs.trace import trace_tree
from ..jobs import (
    KIND_MERGE,
    KIND_SHARD,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobStateError,
)
from ..stream import (
    ALERT_RULES,
    ALERTS,
    BatchError,
    RetentionError,
    RuleError,
    append_batch,
    feed_snapshot,
    first_live_seq,
    get_retention,
    latest_seq,
    public_event,
    public_rule,
    read_events,
    render_sse,
    render_sse_bootstrap,
    set_retention,
    validate_rule,
)
from .handlers import (
    ServerState,
    admin_stats_payload,
    correlated_sensors_core,
    dataset_result_documents,
    evicted_job_response,
    parse_mine_mode,
    parse_parameters,
    parse_upload_begin,
    render_viz_svg,
    results_by_dataset_payload,
)
from .http import (
    HTTPError,
    Request,
    Response,
    html_response,
    json_response,
    negotiate_media_type,
    svg_response,
)

__all__ = ["register_v1_routes", "API_PREFIX", "DEFAULT_PAGE_LIMIT", "MAX_PAGE_LIMIT"]

API_PREFIX = "/api/v1"

#: Page sizing for ``GET /api/v1/results/{key}/caps``.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Long-poll ceiling for the change-feed endpoints; the HTTP server's
#: request timeout is 30s, so the poll must resolve comfortably inside it.
MAX_WAIT_SECONDS = 20.0


def _url(path: str) -> str:
    return f"{API_PREFIX}{path}"


# -- representation helpers ----------------------------------------------------


def _dataset_links(name: str) -> dict[str, str]:
    return {
        "self": _url(f"/datasets/{name}"),
        "results": _url(f"/datasets/{name}/results"),
        "viz_map": _url(f"/datasets/{name}/viz/map"),
    }


def _result_links(key: str, dataset: str) -> dict[str, str]:
    return {
        "self": _url(f"/results/{key}"),
        "caps": _url(f"/results/{key}/caps"),
        "dataset": _url(f"/datasets/{dataset}"),
    }


def _job_resource(job: Job, children: list[Job] | None = None) -> dict[str, Any]:
    document = job.to_document()
    links = {
        "self": _url(f"/jobs/{job.job_id}"),
        "dataset": _url(f"/datasets/{job.dataset}"),
    }
    if job.state not in TERMINAL_STATES:
        links["cancel"] = _url(f"/jobs/{job.job_id}/cancel")
    if job.state == SUCCEEDED and job.result_key is not None:
        links["result"] = _url(f"/results/{job.result_key}")
    document["links"] = links
    if children:
        # The distributed parent's shard tree: per-sub-job state, attempts,
        # and workers, so one GET shows where a distributed mine stands.
        document["shards"] = [
            _subjob_entry(child) for child in children if child.kind == KIND_SHARD
        ]
        merge = next((c for c in children if c.kind == KIND_MERGE), None)
        if merge is not None:
            document["merge"] = _subjob_entry(merge)
    return document


def _subjob_entry(child: Job) -> dict[str, Any]:
    return {
        "job_id": child.job_id,
        "kind": child.kind,
        "shard_index": child.shard_index,
        "state": child.state,
        "attempt": child.attempt,
        "max_attempts": child.max_attempts,
        "worker_id": child.worker_id,
        "lease_expires_at": child.lease_expires_at,
        "not_before": child.not_before,
        "error": child.error.to_document() if child.error else None,
    }


def _result_resource(state: ServerState, document: Mapping[str, Any]) -> dict[str, Any]:
    """Result *metadata* — identity, shape, and links; never the CAP list.

    The CAPs themselves are a sub-resource (``…/caps``) so a big mine's
    metadata stays a small constant-size payload.
    """
    resource = state.cache.metadata(document)
    resource["links"] = _result_links(resource["key"], resource["dataset"])
    return resource


def _result_etag(state: ServerState, key: str, dataset: str, *parts: object) -> str:
    """A strong ETag for one result representation.

    Keyed off the cache key (content identity) and the dataset generation
    (a re-upload/delete invalidates every representation even if a key were
    ever resurrected from a snapshot); paginated representations append a
    digest of their offset/limit/filters so each page validates
    independently.  The digest keeps distinct parameter combinations from
    colliding (and arbitrary filter strings out of the header value).

    The generation is read from the store view as it stands: callers read
    the result first (``get_result_document`` and ``get_dataset`` refresh
    the view), so the ETag names the generation the body was built from.
    """
    generation = state.dataset_generation(dataset, refresh=False)
    suffix = ""
    if any(part is not None and part != "" for part in parts):
        import hashlib
        import json as _json

        digest = hashlib.sha256(
            _json.dumps([None if p == "" else p for p in parts]).encode("utf-8")
        ).hexdigest()[:12]
        suffix = f"-p{digest}"
    return f'"{key[:24]}-g{generation}{suffix}"'


def _not_modified(request: Request, etag: str) -> Response | None:
    """A 304 when ``If-None-Match`` revalidates ``etag``, else None."""
    header = (request.headers or {}).get("if-none-match", "")
    if not header:
        return None
    tags = [tag.strip() for tag in header.split(",")]
    if "*" in tags or etag in tags:
        return Response(status=304, headers={"ETag": etag})
    return None


def _int_param(request: Request, name: str, default: int, minimum: int, maximum: int) -> int:
    raw = request.param(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise HTTPError(
            400, f"{name} must be an integer, got {raw!r}", code="invalid_pagination"
        ) from exc
    if not minimum <= value <= maximum:
        raise HTTPError(
            400,
            f"{name} must be between {minimum} and {maximum}, got {value}",
            code="invalid_pagination",
        )
    return value


def _wait_param(request: Request) -> float:
    """The long-poll ``wait`` query parameter in seconds (default 0)."""
    raw = request.param("wait")
    if raw is None:
        return 0.0
    try:
        value = float(raw)
    except ValueError as exc:
        raise HTTPError(
            400, f"wait must be a number of seconds, got {raw!r}", code="invalid_wait"
        ) from exc
    if not 0 <= value <= MAX_WAIT_SECONDS:
        raise HTTPError(
            400,
            f"wait must be between 0 and {MAX_WAIT_SECONDS:g} seconds, got {value:g}",
            code="invalid_wait",
        )
    return value


#: Long-poll back-off bounds: start fast so a feed that lands events
#: moments after the poll parks answers promptly, then double up to a cap
#: so an idle 20s poll costs ~80 wakeups, not 400 fixed-rate rescans.
POLL_BACKOFF_INITIAL = 0.05
POLL_BACKOFF_MAX = 0.25


def _require_live_cursor(state: ServerState, name: str, cursor: int) -> int:
    """The feed's ``first_live_seq``; raises 410 when ``cursor`` predates it.

    After a retention fold the events below the horizon are gone — a
    cursor parked behind ``first_live_seq - 1`` can never be answered
    faithfully again.  The 410 envelope carries everything the client
    needs to recover: the horizon itself and a link to the feed snapshot
    that replaces the trimmed prefix.
    """
    first_live = first_live_seq(state.database, name)
    if cursor < first_live - 1:
        raise HTTPError(
            410,
            f"cursor {cursor} predates the retention horizon; events below "
            f"seq {first_live} have been folded into the feed snapshot",
            code="cursor_expired",
            details={
                "cursor": int(cursor),
                "first_live_seq": int(first_live),
                "links": {
                    "snapshot": _url(f"/datasets/{name}/events/snapshot"),
                    "events": _url(f"/datasets/{name}/events"),
                },
            },
        )
    return first_live


def _poll_events(
    state: ServerState, name: str, cursor: int, limit: int, wait: float
) -> list[dict[str, Any]]:
    """One change-feed page past ``cursor``, long-polling up to ``wait`` s.

    Each poll beat first adopts peers' persisted tail (the resident miner
    may run in another worker process), so a long-poll parked on an idle
    feed wakes as soon as *any* process lands events.  The cursor is
    horizon-checked every beat, not just on entry: a retention fold in
    another process can expire a parked cursor mid-poll, and answering
    with a silently-empty page would look like "no new events" instead
    of "your history is gone".  Idle beats back off exponentially
    (doubling from {POLL_BACKOFF_INITIAL}s, capped at {POLL_BACKOFF_MAX}s
    and at the remaining wait), trading a bounded wake latency for far
    fewer store rescans under parked long-polls.
    """
    deadline = time.monotonic() + wait
    delay = POLL_BACKOFF_INITIAL
    while True:
        state.jobs.store.refresh()
        _require_live_cursor(state, name, cursor)
        events = read_events(state.database, name, cursor, limit)
        remaining = deadline - time.monotonic()
        if events or remaining <= 0:
            return events
        time.sleep(min(delay, remaining))
        delay = min(delay * 2, POLL_BACKOFF_MAX)


def _page_link_header(
    base_path: str, offset: int, limit: int, total: int, filters: Mapping[str, str]
) -> str:
    """RFC-5988 ``Link`` header with first/prev/next/last page relations."""

    def page_url(page_offset: int) -> str:
        query = {"offset": page_offset, "limit": limit, **filters}
        return f"{base_path}?{urlencode(query)}"

    last_offset = ((total - 1) // limit) * limit if total > 0 else 0
    links = [f'<{page_url(0)}>; rel="first"', f'<{page_url(last_offset)}>; rel="last"']
    if offset > 0:
        links.append(f'<{page_url(max(0, offset - limit))}>; rel="prev"')
    if offset + limit < total:
        links.append(f'<{page_url(offset + limit)}>; rel="next"')
    return ", ".join(links)


def register_v1_routes(router: Any, state: ServerState) -> None:
    """Attach the ``/api/v1`` resource routes to a router."""

    @router.get(
        "/api/v1",
        responses={"200": "service document with top-level resource links"},
    )
    def v1_index(request: Request) -> Response:
        """Service document: version and top-level links."""
        return json_response(
            {
                "service": "miscela-v",
                "api_version": "v1",
                "links": {
                    "self": API_PREFIX,
                    "schema": _url("/schema"),
                    "datasets": _url("/datasets"),
                    "jobs": _url("/jobs"),
                    "admin_stats": _url("/admin/stats"),
                },
            }
        )

    @router.get(
        "/api/v1/schema",
        responses={"200": "OpenAPI-style description of every registered route"},
    )
    def v1_schema(request: Request) -> Response:
        """Self-describing schema generated from router introspection."""
        from .schema import build_schema  # local: schema imports nothing from here

        return json_response(build_schema(router))

    # -- datasets -------------------------------------------------------------

    @router.get(
        "/api/v1/datasets",
        responses={"200": "dataset collection with per-item links"},
    )
    def v1_list_datasets(request: Request) -> Response:
        """List uploaded datasets as linked resources."""
        return json_response(
            {
                "datasets": [
                    {"name": name, "links": _dataset_links(name)}
                    for name in state.dataset_names()
                ]
            }
        )

    @router.get(
        "/api/v1/datasets/{name}",
        responses={"200": "dataset summary", "404": "unknown dataset"},
    )
    def v1_describe_dataset(request: Request) -> Response:
        """Describe one dataset (sensors, records, attributes, time span)."""
        name = request.path_params["name"]
        dataset = state.get_dataset(name)
        payload = dict(dataset.describe())
        payload["links"] = _dataset_links(name)
        return json_response(payload)

    @router.delete(
        "/api/v1/datasets/{name}",
        responses={"204": "dataset deleted", "404": "unknown dataset"},
    )
    def v1_delete_dataset(request: Request) -> Response:
        """Delete a dataset and every result mined from it."""
        name = request.path_params["name"]
        if not state.delete_dataset(name):
            raise HTTPError(404, f"unknown dataset {name!r}", code="unknown_dataset")
        return Response(status=204)

    # -- uploads --------------------------------------------------------------

    @router.post(
        "/api/v1/datasets/{name}/upload/begin",
        responses={"201": "upload session opened",
                   "409": "a session is already open for this name"},
    )
    def v1_upload_begin(request: Request) -> Response:
        """Open a chunked-upload session (location + attribute CSVs)."""
        name = request.path_params["name"]
        locations, attributes = parse_upload_begin(request)
        state.begin_upload(name, locations, attributes)
        return json_response(
            {
                "dataset": name,
                "status": "upload started",
                "links": {
                    "chunk": _url(f"/datasets/{name}/upload/chunk"),
                    "finish": _url(f"/datasets/{name}/upload/finish"),
                    "abort": _url(f"/datasets/{name}/upload/abort"),
                },
            },
            status=201,
        )

    @router.post(
        "/api/v1/datasets/{name}/upload/chunk",
        responses={"200": "chunk accepted", "400": "malformed chunk",
                   "409": "no session open"},
    )
    def v1_upload_chunk(request: Request) -> Response:
        """Append one ≤10,000-line data.csv chunk to the open session."""
        name = request.path_params["name"]
        chunks, rows, total = state.append_upload_chunk(name, request.text())
        return json_response(
            {"dataset": name, "chunk": chunks, "rows_in_chunk": rows,
             "rows_total": total}
        )

    @router.post(
        "/api/v1/datasets/{name}/upload/finish",
        responses={"201": "dataset validated and stored",
                   "400": "validation failed", "409": "no session open"},
    )
    def v1_upload_finish(request: Request) -> Response:
        """Validate, assemble, and store the uploaded dataset."""
        name = request.path_params["name"]
        dataset = state.finish_upload(name)
        response = json_response(
            {"dataset": name, "summary": dataset.describe(),
             "links": _dataset_links(name)},
            status=201,
        )
        response.headers["Location"] = _url(f"/datasets/{name}")
        return response

    @router.post(
        "/api/v1/datasets/{name}/upload/abort",
        responses={"200": "session discarded", "409": "no session open"},
    )
    def v1_upload_abort(request: Request) -> Response:
        """Discard an open upload session (e.g. after a rejected chunk)."""
        name = request.path_params["name"]
        if not state.abort_upload(name):
            raise HTTPError(
                409,
                f"no upload in progress for dataset {name!r}",
                code="no_upload_in_progress",
            )
        return json_response({"dataset": name, "status": "upload aborted"})

    # -- results --------------------------------------------------------------

    @router.post(
        "/api/v1/datasets/{name}/results",
        responses={
            "201": "result resource created (or dedup'd onto); Location set",
            "202": "async, distributed, or streaming job accepted; Location "
                   "points at the job (mode=distributed shards the mine into "
                   "sub-jobs any worker process can claim; mode=streaming "
                   "opens the resident miner that drains appended "
                   "observation batches into the CAP change feed)",
            "400": "bad body/parameters/mode",
            "404": "unknown dataset",
            "409": "dataset replaced while mining; nothing stored (dataset_replaced)",
        },
    )
    def v1_create_result(request: Request) -> Response:
        """Mine (or dedup onto) the result resource for (dataset, parameters)."""
        name = request.path_params["name"]
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "expected a JSON object")
        if "parameters" not in payload:
            raise HTTPError(
                400, "body must contain 'parameters'", code="missing_fields"
            )
        mode = parse_mine_mode(payload, request)
        dataset, _, still_current = state.current_dataset(name)
        params = parse_parameters(payload["parameters"])
        if mode == "streaming":
            job, created = state.submit_stream_job(
                dataset, params, trace_id=request.trace_id
            )
            body = _job_resource(job)
            body["deduplicated"] = not created
            response = json_response(body, status=202)
            response.headers["Location"] = _url(f"/jobs/{job.job_id}")
            return response
        if mode in ("async", "distributed"):
            plan_workers = payload.get("plan_workers")
            if plan_workers is not None and (
                not isinstance(plan_workers, int) or plan_workers < 1
            ):
                raise HTTPError(
                    400, "'plan_workers' must be a positive integer",
                    code="bad_plan_workers",
                )
            job, created = state.submit_mine_job(
                dataset,
                params,
                distributed=(mode == "distributed"),
                plan_workers=plan_workers,
                trace_id=request.trace_id,
            )
            body = _job_resource(job)
            body["deduplicated"] = not created
            response = json_response(body, status=202)
            response.headers["Location"] = _url(f"/jobs/{job.job_id}")
            return response
        try:
            result = state.cache.mine_cached(dataset, params, current=still_current)
        except MiningCancelled:
            raise HTTPError(
                409,
                f"dataset {name!r} was replaced while mining; mine it again",
                code="dataset_replaced",
            ) from None
        key = cache_key(name, params)
        body = {
            "key": key,
            "dataset": name,
            "parameters": params.to_document(),
            "num_caps": result.num_caps,
            "elapsed_seconds": result.elapsed_seconds,
            "from_cache": result.from_cache,
            "links": _result_links(key, name),
        }
        response = json_response(body, status=201)
        response.headers["Location"] = _url(f"/results/{key}")
        response.headers["ETag"] = _result_etag(state, key, name)
        return response

    @router.get(
        "/api/v1/datasets/{name}/results",
        responses={"200": "result resources mined from this dataset",
                   "404": "unknown dataset"},
    )
    def v1_list_results(request: Request) -> Response:
        """List the result resources mined from one dataset."""
        name = request.path_params["name"]
        documents = dataset_result_documents(state, name)
        return json_response(
            {
                "dataset": name,
                "results": [_result_resource(state, doc) for doc in documents],
            }
        )

    @router.get(
        "/api/v1/results/{key}",
        responses={"200": "result metadata with ETag",
                   "304": "If-None-Match revalidated", "404": "unknown result"},
    )
    def v1_get_result(request: Request) -> Response:
        """Result metadata; conditional via ETag/If-None-Match."""
        key = request.path_params["key"]
        document = state.get_result_document(key)
        dataset = state.cache.metadata(document)["dataset"]
        etag = _result_etag(state, key, dataset)
        not_modified = _not_modified(request, etag)
        if not_modified is not None:
            return not_modified
        response = json_response(_result_resource(state, document))
        response.headers["ETag"] = etag
        return response

    @router.delete(
        "/api/v1/results/{key}",
        responses={"204": "result deleted", "404": "unknown result"},
    )
    def v1_delete_result(request: Request) -> Response:
        """Evict one cached result resource."""
        key = request.path_params["key"]
        state.get_result_document(key)  # 404 when absent
        state.cache.delete_key(key)
        return Response(status=204)

    @router.get(
        "/api/v1/results/{key}/caps",
        query=(
            {"name": "offset", "type": "integer",
             "description": "first CAP position to return (default 0)"},
            {"name": "limit", "type": "integer",
             "description": f"page size, 1–{MAX_PAGE_LIMIT} "
                            f"(default {DEFAULT_PAGE_LIMIT})"},
            {"name": "sensor", "type": "string",
             "description": "only CAPs containing this sensor id "
                            "(served from the inverted index)"},
            {"name": "attribute", "type": "string",
             "description": "only CAPs involving this attribute"},
        ),
        responses={"200": "one CAP page with Link pagination headers",
                   "304": "If-None-Match revalidated",
                   "400": "invalid pagination", "404": "unknown result"},
    )
    def v1_result_caps(request: Request) -> Response:
        """Paginated, filterable CAP pages of one result.

        Pages preserve mining order, so concatenating every page (no
        filters) reproduces the mined CAP list exactly.
        """
        key = request.path_params["key"]
        document = state.get_result_document(key)
        dataset = state.cache.metadata(document)["dataset"]
        offset = _int_param(request, "offset", 0, 0, 10**9)
        limit = _int_param(request, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        sensor = request.param("sensor")
        attribute = request.param("attribute")

        etag = _result_etag(state, key, dataset, offset, limit, sensor, attribute)
        not_modified = _not_modified(request, etag)
        if not_modified is not None:
            return not_modified

        result = state.result_from_document(document)
        caps = result.caps_containing(sensor) if sensor else result.caps
        if attribute:
            caps = [cap for cap in caps if attribute in cap.attributes]
        total = len(caps)
        page = caps[offset : offset + limit]
        filters: dict[str, str] = {}
        if sensor:
            filters["sensor"] = sensor
        if attribute:
            filters["attribute"] = attribute
        response = json_response(
            {
                "key": key,
                "dataset": dataset,
                "total": total,
                "offset": offset,
                "limit": limit,
                "caps": [cap.to_document() for cap in page],
                "links": _result_links(key, dataset),
            }
        )
        response.headers["ETag"] = etag
        response.headers["Link"] = _page_link_header(
            _url(f"/results/{key}/caps"), offset, limit, total, filters
        )
        return response

    # -- interaction ----------------------------------------------------------

    @router.get(
        "/api/v1/datasets/{name}/sensors/{sensor_id}/correlated",
        responses={"200": "correlated sensors with shared attributes",
                   "404": "unknown dataset/sensor", "409": "nothing mined yet"},
    )
    def v1_correlated_sensors(request: Request) -> Response:
        """The map's click interaction: who is correlated with this sensor?"""
        name = request.path_params["name"]
        sensor_id = request.path_params["sensor_id"]
        correlated = correlated_sensors_core(state, name, sensor_id)
        return json_response(
            {
                "dataset": name,
                "sensor": sensor_id,
                "correlated": correlated,
                "links": {"dataset": _url(f"/datasets/{name}")},
            }
        )

    # -- live ingestion & change feed -----------------------------------------

    @router.post(
        "/api/v1/datasets/{name}/observations",
        responses={
            "202": "batch appended durably (WAL-fsynced before this answer) "
                   "and the dataset's stream epoch bumped; the resident "
                   "streaming miner picks it up on its next drain",
            "400": "batch fails schema validation: wrong sensor set, ragged "
                   "rows, non-numeric readings, or timestamps that do not "
                   "continue the dataset's sampling grid",
            "404": "unknown dataset",
        },
    )
    def v1_append_observations(request: Request) -> Response:
        """Append one timestamp-ordered observation batch (live ingestion)."""
        name = request.path_params["name"]
        dataset = state.get_dataset(name)
        try:
            receipt = append_batch(state.database, dataset, request.json())
        except BatchError as exc:
            raise HTTPError(400, str(exc), code="invalid_batch") from exc
        receipt["links"] = {
            "dataset": _url(f"/datasets/{name}"),
            "events": _url(f"/datasets/{name}/events"),
        }
        return json_response(receipt, status=202)

    feed_query = (
        {"name": "cursor", "type": "integer",
         "description": "resume token: highest event seq already seen "
                        "(default 0 = from the beginning; durable across "
                        "server restarts)"},
        {"name": "limit", "type": "integer",
         "description": f"page size, 1–{MAX_PAGE_LIMIT} "
                        f"(default {DEFAULT_PAGE_LIMIT})"},
        {"name": "wait", "type": "number",
         "description": "long-poll: hold the request up to this many "
                        f"seconds (0–{MAX_WAIT_SECONDS:g}, default 0) until "
                        "events past the cursor exist"},
    )

    @router.get(
        "/api/v1/datasets/{name}/events",
        query=feed_query,
        responses={"200": "CAP change events past the cursor, ascending by "
                          "seq, plus the next resume cursor",
                   "400": "invalid cursor/limit/wait",
                   "404": "unknown dataset",
                   "410": "cursor predates the retention horizon; the error "
                          "detail carries first_live_seq and a link to the "
                          "feed snapshot to bootstrap from"},
    )
    def v1_dataset_events(request: Request) -> Response:
        """One page of the dataset's CAP change feed (optionally long-polled).

        Events are persisted store documents, so a cursor saved before a
        server restart resumes exactly where it left off — unless
        retention folded it away, in which case the poll answers 410
        ``cursor_expired`` instead of a silently-empty page.
        """
        name = request.path_params["name"]
        state.get_dataset(name)
        cursor = _int_param(request, "cursor", 0, 0, 10**12)
        limit = _int_param(request, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        wait = _wait_param(request)
        events = _poll_events(state, name, cursor, limit, wait)
        return json_response(
            {
                "dataset": name,
                "cursor": int(events[-1]["seq"]) if events else cursor,
                "latest_seq": latest_seq(state.database, name),
                "first_live_seq": first_live_seq(state.database, name),
                "events": events,
                "links": {
                    "self": _url(f"/datasets/{name}/events"),
                    "stream": _url(f"/datasets/{name}/events/stream"),
                    "snapshot": _url(f"/datasets/{name}/events/snapshot"),
                },
            }
        )

    @router.get(
        "/api/v1/datasets/{name}/events/stream",
        query=feed_query,
        responses={"200": "the same feed page framed as text/event-stream "
                          "(bounded body; each frame's id: line is its seq — "
                          "reconnect with Last-Event-ID or ?cursor= to "
                          "continue)",
                   "400": "invalid cursor/limit/wait",
                   "404": "unknown dataset"},
    )
    def v1_dataset_events_sse(request: Request) -> Response:
        """The change feed in Server-Sent-Events framing.

        The server fully buffers responses, so each request serves a
        *bounded* stream; clients follow the standard SSE reconnect
        contract, passing the last ``id:`` back via ``Last-Event-ID`` (or
        ``cursor=``) to resume.  A reconnect whose id fell behind the
        retention horizon does **not** error (the SSE contract has no
        useful error channel): the stream instead opens with one
        ``event: snapshot`` frame carrying the folded CAP state, whose
        ``id:`` is ``first_live_seq - 1``, and continues with the live
        tail from there.
        """
        name = request.path_params["name"]
        state.get_dataset(name)
        last_event_id = (request.headers or {}).get("last-event-id")
        if last_event_id is not None and request.param("cursor") is None:
            try:
                cursor = int(last_event_id)
            except ValueError as exc:
                raise HTTPError(
                    400,
                    f"Last-Event-ID must be an integer seq, got {last_event_id!r}",
                    code="invalid_cursor",
                ) from exc
            if cursor < 0:
                raise HTTPError(
                    400, "Last-Event-ID must be >= 0", code="invalid_cursor"
                )
        else:
            cursor = _int_param(request, "cursor", 0, 0, 10**12)
        limit = _int_param(request, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        wait = _wait_param(request)
        prefix = ""
        first_live = first_live_seq(state.database, name)
        if cursor < first_live - 1:
            snapshot = feed_snapshot(state.database, name)
            if snapshot is not None:
                prefix = render_sse_bootstrap(snapshot)
            cursor = first_live - 1
        events = _poll_events(state, name, cursor, limit, wait)
        return Response(
            status=200,
            headers={
                "Content-Type": "text/event-stream; charset=utf-8",
                "Cache-Control": "no-store",
            },
            body=(prefix + render_sse(events)).encode("utf-8"),
        )

    @router.get(
        "/api/v1/datasets/{name}/events/snapshot",
        responses={"200": "the durable feed snapshot: the folded CAP state "
                          "as of first_live_seq - 1, the bootstrap point "
                          "for cursors the retention fold expired",
                   "404": "unknown dataset, or the feed has never been "
                          "folded (every event is still live; read from "
                          "cursor 0 instead)"},
    )
    def v1_dataset_events_snapshot(request: Request) -> Response:
        """The feed snapshot that replaces events behind the retention horizon."""
        name = request.path_params["name"]
        state.get_dataset(name)
        snapshot = feed_snapshot(state.database, name)
        if snapshot is None:
            raise HTTPError(
                404,
                f"dataset {name!r} has no feed snapshot; retention has never "
                "folded this feed — replay it from cursor 0",
                code="no_snapshot",
            )
        snapshot["links"] = {
            "self": _url(f"/datasets/{name}/events/snapshot"),
            "events": _url(f"/datasets/{name}/events"),
        }
        return json_response(snapshot)

    @router.get(
        "/api/v1/datasets/{name}/stream-config",
        responses={"200": "the dataset's effective stream retention "
                          "configuration (per-dataset overrides merged over "
                          "the server default)",
                   "404": "unknown dataset"},
    )
    def v1_get_stream_config(request: Request) -> Response:
        """The effective stream retention configuration for one dataset."""
        name = request.path_params["name"]
        state.get_dataset(name)
        config = get_retention(
            state.database, name, default=state.stream_default_retention
        )
        config["links"] = {
            "self": _url(f"/datasets/{name}/stream-config"),
            "events": _url(f"/datasets/{name}/events"),
        }
        return json_response(config)

    @router.patch(
        "/api/v1/datasets/{name}/stream-config",
        responses={"200": "retention settings merged and stored; the next "
                          "retention sweep applies them",
                   "400": "unknown key or invalid value (retention_seqs "
                          "must be a positive integer or null, "
                          "retention_seconds a positive number or null)",
                   "404": "unknown dataset"},
    )
    def v1_patch_stream_config(request: Request) -> Response:
        """Set (or clear, with null) per-dataset stream retention horizons."""
        name = request.path_params["name"]
        state.get_dataset(name)
        try:
            stored = set_retention(state.database, name, request.json())
        except RetentionError as exc:
            raise HTTPError(400, str(exc), code="invalid_retention") from exc
        effective = get_retention(
            state.database, name, default=state.stream_default_retention
        )
        return json_response(
            {
                "dataset": name,
                "stored": stored,
                "effective": {
                    k: effective[k] for k in ("retention_seqs", "retention_seconds")
                },
                "links": {"self": _url(f"/datasets/{name}/stream-config")},
            }
        )

    # -- alerting -------------------------------------------------------------

    @router.post(
        "/api/v1/datasets/{name}/alert-rules",
        responses={
            "201": "rule stored (created or replaced, idempotent by "
                   "rule_id); the resident miner evaluates it against every "
                   "subsequent epoch's events",
            "400": "rule fails the grammar (see DESIGN.md: rule_id, "
                   "optional event_types/attribute, >= 1 severity levels "
                   "with distinct min_sensors >= 2)",
            "404": "unknown dataset",
        },
    )
    def v1_put_alert_rule(request: Request) -> Response:
        """Create or replace one threshold alert rule for this dataset."""
        name = request.path_params["name"]
        state.get_dataset(name)
        try:
            document = validate_rule(name, request.json())
        except RuleError as exc:
            raise HTTPError(400, str(exc), code="invalid_rule") from exc
        document["rule_uid"] = f"{name}:{document['rule_id']}"
        with state.database.exclusive():
            collection = state.database.collection(ALERT_RULES)
            replaced = (
                collection.replace_one({"rule_uid": document["rule_uid"]}, document)
                is not None
            )
            if not replaced:
                collection.insert_one(document)
        body = public_rule(document)
        body["replaced"] = replaced
        body["links"] = {
            "rules": _url(f"/datasets/{name}/alert-rules"),
            "alerts": _url(f"/datasets/{name}/alerts"),
        }
        return json_response(body, status=201)

    @router.get(
        "/api/v1/datasets/{name}/alert-rules",
        responses={"200": "the dataset's alert rules, sorted by rule_id",
                   "404": "unknown dataset"},
    )
    def v1_list_alert_rules(request: Request) -> Response:
        """List the alert rules registered for one dataset."""
        name = request.path_params["name"]
        state.get_dataset(name)
        rows = state.database.collection(ALERT_RULES).find(
            {"dataset": name}, sort="rule_id"
        )
        return json_response(
            {"dataset": name, "rules": [public_rule(row) for row in rows]}
        )

    @router.delete(
        "/api/v1/datasets/{name}/alert-rules/{rule_id}",
        responses={"204": "rule deleted", "404": "unknown dataset or rule"},
    )
    def v1_delete_alert_rule(request: Request) -> Response:
        """Delete one alert rule (already-fired alerts are kept)."""
        name = request.path_params["name"]
        rule_id = request.path_params["rule_id"]
        state.get_dataset(name)
        query = {"dataset": name, "rule_id": rule_id}
        removed = state.database.collection(ALERT_RULES).delete_many(query)
        if not removed:
            raise HTTPError(404, f"unknown rule {rule_id!r}", code="unknown_rule")
        return Response(status=204)

    @router.get(
        "/api/v1/datasets/{name}/alerts",
        query=(
            {"name": "rule", "type": "string",
             "description": "only alerts fired by this rule_id"},
            {"name": "limit", "type": "integer",
             "description": f"page size, 1–{MAX_PAGE_LIMIT} "
                            f"(default {DEFAULT_PAGE_LIMIT})"},
        ),
        responses={"200": "fired alerts, ascending by the event seq that "
                          "triggered them",
                   "400": "invalid limit",
                   "404": "unknown dataset"},
    )
    def v1_list_alerts(request: Request) -> Response:
        """List alerts the stream engine has fired for one dataset."""
        name = request.path_params["name"]
        state.get_dataset(name)
        limit = _int_param(request, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        rule = request.param("rule")
        rows = state.database.collection(ALERTS).find({"dataset": name}, sort="seq")
        if rule:
            rows = [row for row in rows if row.get("rule_id") == rule]
        return json_response(
            {
                "dataset": name,
                "alerts": [public_event(row) for row in rows[:limit]],
            }
        )

    # -- jobs -----------------------------------------------------------------

    @router.get(
        "/api/v1/jobs",
        query=({"name": "status", "type": "string",
                "description": "filter by job state"},),
        responses={"200": "job resources (each carries its lease fields: "
                          "worker_id, lease_expires_at, attempt)",
                   "400": "unknown status"},
    )
    def v1_list_jobs(request: Request) -> Response:
        """List mining jobs as linked resources."""
        status = request.param("status")
        try:
            jobs = state.jobs.store.list(status)
        except JobStateError as exc:
            raise HTTPError(400, str(exc), code="invalid_status") from exc
        return json_response({"jobs": [_job_resource(job) for job in jobs]})

    @router.get(
        "/api/v1/jobs/{job_id}",
        responses={"200": "job resource (links to the result once succeeded; "
                          "worker_id/lease_expires_at/attempt expose the "
                          "registry's lease state; a distributed "
                          "parent inlines its shard tree — per-shard states, "
                          "attempts, and workers plus the merge step)",
                   "301": "metadata evicted; Location points at the result",
                   "404": "unknown job"},
    )
    def v1_job_status(request: Request) -> Response:
        """One job's status/progress; links to the result resource on success."""
        job_id = request.path_params["job_id"]
        store = state.jobs.store
        job = store.get(job_id)
        if job is None:
            evicted = evicted_job_response(state, job_id)
            if evicted is not None:
                return evicted
            raise HTTPError(404, f"unknown job {job_id!r}", code="unknown_job")
        # Shards by index, then the merge: the order they were planned in.
        children = (
            store.list(kind=None, parent_id=job_id) if job.distributed else None
        )
        response = json_response(_job_resource(job, children))
        if job.state == SUCCEEDED and job.result_key is not None:
            response.headers["Link"] = (
                f'<{_url(f"/results/{job.result_key}")}>; rel="result"'
            )
        return response

    @router.get(
        "/api/v1/jobs/{job_id}/trace",
        responses={"200": "the job's span tree: per-attempt spans (status, "
                          "worker, start/end) for the job and, on a "
                          "distributed parent, every shard and merge "
                          "sub-job, plus measured shard wall-times",
                   "404": "unknown job"},
    )
    def v1_job_trace(request: Request) -> Response:
        """The persisted trace of one job as a JSON span tree.

        The same tree ``repro trace <job_id>`` renders as an ASCII
        waterfall; spans live in the store's ``spans`` collection.
        """
        job_id = request.path_params["job_id"]
        try:
            tree = trace_tree(state.jobs.store, job_id)
        except KeyError as exc:
            raise HTTPError(404, f"unknown job {job_id!r}", code="unknown_job") from exc
        return json_response(tree)

    @router.post(
        "/api/v1/jobs/{job_id}/cancel",
        responses={"200": "cancellation requested", "404": "unknown job",
                   "409": "job already finished"},
    )
    def v1_job_cancel(request: Request) -> Response:
        """Request cooperative cancellation of a queued/running job."""
        job_id = request.path_params["job_id"]
        try:
            job = state.jobs.store.request_cancel(job_id)
        except KeyError as exc:
            raise HTTPError(404, f"unknown job {job_id!r}", code="unknown_job") from exc
        except JobStateError as exc:
            raise HTTPError(409, str(exc), code="job_finished") from exc
        return json_response(_job_resource(job))

    # -- visualization --------------------------------------------------------

    def _viz_handler(kind: str):
        def handler(request: Request) -> Response:
            name = request.path_params["name"]
            media = negotiate_media_type(request, ("text/html", "image/svg+xml"))
            svg, title = render_viz_svg(state, kind, name, request)
            if media == "image/svg+xml":
                return svg_response(svg.to_string())
            return html_response(svg.to_html_page(title=title))

        handler.__name__ = f"v1_viz_{kind}"
        handler.__doc__ = (
            f"{kind.capitalize()} visualization; negotiates text/html vs image/svg+xml."
        )
        return handler

    viz_query = {
        "map": ({"name": "highlight", "type": "string",
                 "description": "comma-separated sensor ids to highlight"},),
        "heatmap": ({"name": "sensors", "type": "string",
                     "description": "comma-separated sensor ids (default: first 20)"},),
        "timeseries": ({"name": "sensors", "type": "string",
                        "description": "comma-separated sensor ids (required)"},),
    }
    for kind in ("map", "heatmap", "timeseries"):
        router.add(
            "GET",
            f"/api/v1/datasets/{{name}}/viz/{kind}",
            _viz_handler(kind),
            query=viz_query[kind],
            responses={"200": "text/html page or image/svg+xml document "
                              "(content-negotiated)",
                       "404": "unknown dataset/sensor",
                       "406": "Accept matches neither offered type"},
        )

    # -- admin ----------------------------------------------------------------

    @router.get(
        "/api/v1/admin/stats",
        responses={"200": "store/cache/job counters (with per-lease health: "
                          "active vs expired, a per-kind job breakdown, and "
                          "the dead-lettered job count)"},
    )
    def v1_admin_stats(request: Request) -> Response:
        """Store, cache, and job-queue counters."""
        return json_response(admin_stats_payload(state))

    @router.get(
        "/api/v1/metrics",
        responses={"200": "Prometheus text exposition (format 0.0.4) of "
                          "every process-local metric family: HTTP "
                          "requests/latency, job lifecycle counters, WAL "
                          "append/fsync timings, cache hits/misses"},
    )
    def v1_metrics(request: Request) -> Response:
        """Prometheus scrape endpoint for the process-local registry."""
        return Response(
            status=200,
            headers={"Content-Type": METRICS_CONTENT_TYPE},
            body=get_registry().render().encode("utf-8"),
        )

    @router.get(
        "/api/v1/admin/results-by-dataset",
        responses={"200": "per-dataset cached-result aggregation"},
    )
    def v1_admin_results_by_dataset(request: Request) -> Response:
        """Per-dataset summary of the cached results."""
        return json_response(results_by_dataset_payload(state))
