"""Middleware: error rendering, request logging, and body-size limits.

Composable request wrappers in the WSGI/django tradition.  The error
middleware is the API's single error-envelope layer: every failure —
:class:`~repro.server.http.HTTPError`, dataset validation, or an unexpected
exception — renders through :func:`render_error` as the uniform v1 error
document ``{"error": {"code", "message", "detail"}}``: one shape for 400s,
404s, 405s and 500s alike, with a stable machine-readable ``code``, on
every path (an unmatched path outside ``/api/v1`` included).

Headers attached to an :class:`HTTPError` (e.g. ``Allow`` on a 405) are
merged into the rendered response.
"""

from __future__ import annotations

import logging
import os
import time
import uuid
from typing import Any, Callable, Mapping

from ..data.validation import DatasetValidationError
from ..obs.logging import log_context
from ..obs.metrics import get_registry
from .http import HTTPError, Request, Response, json_response

__all__ = [
    "error_middleware",
    "logging_middleware",
    "body_limit_middleware",
    "request_id_middleware",
    "metrics_middleware",
    "render_error",
    "REQUEST_ID_HEADER",
    "SLOW_REQUEST_ENV",
]

Handler = Callable[[Request], Response]

logger = logging.getLogger("repro.server")

#: The trace-propagation header: honored when the client sends one,
#: minted and echoed otherwise.
REQUEST_ID_HEADER = "X-Request-Id"

#: Milliseconds; requests slower than this log a warning.  Unset/empty
#: disables the check (the default — benchmarks must not pay for it).
SLOW_REQUEST_ENV = "REPRO_SLOW_REQUEST_MS"


def render_error(
    status: int,
    code: str,
    message: str,
    detail: Any = None,
    headers: Mapping[str, str] | None = None,
) -> Response:
    """Render one error as the v1 envelope."""
    response = json_response(
        {"error": {"code": code, "message": message, "detail": detail}},
        status=status,
    )
    if headers:
        response.headers.update(headers)
    return response


def error_middleware(handler: Handler) -> Handler:
    """Render HTTPError / validation errors as JSON; 500 for the unexpected."""

    def wrapped(request: Request) -> Response:
        try:
            return handler(request)
        except HTTPError as exc:
            return render_error(
                exc.status, exc.code, exc.message,
                detail=exc.details, headers=exc.headers,
            )
        except DatasetValidationError as exc:
            return render_error(
                400, "validation_failed",
                "dataset validation failed", detail=exc.errors,
            )
        except Exception as exc:  # noqa: BLE001 - the server must not crash
            logger.exception("unhandled error for %s %s", request.method, request.path)
            return render_error(500, "internal_error", f"internal error: {exc}")

    return wrapped


def request_id_middleware(handler: Handler) -> Handler:
    """Honor or mint ``X-Request-Id``; echo it on *every* response.

    Outermost layer: the id must land on error envelopes too, and the
    whole chain (including error rendering) runs inside the trace's log
    context so every record carries ``trace_id``.
    """

    def wrapped(request: Request) -> Response:
        incoming = (request.headers or {}).get(REQUEST_ID_HEADER.lower(), "")
        trace_id = incoming.strip() or uuid.uuid4().hex
        request.trace_id = trace_id
        with log_context(trace_id=trace_id):
            response = handler(request)
        response.headers.setdefault(REQUEST_ID_HEADER, trace_id)
        return response

    return wrapped


def _slow_request_threshold_ms() -> float | None:
    raw = os.environ.get(SLOW_REQUEST_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def metrics_middleware(handler: Handler) -> Handler:
    """Count and time every request, labelled by method/route/status.

    Sits outside the error middleware so it observes the *final* status
    (post error-rendering).  The route label is the registered pattern
    template (``/api/v1/jobs/{job_id}``), never the raw path — label
    cardinality stays bounded by the route table; unmatched requests
    (404/405 before dispatch assigns a route) share one bucket.
    """
    registry = get_registry()
    requests_total = registry.counter(
        "repro_http_requests_total",
        "HTTP requests served, by method, route template, and status.",
        ("method", "route", "status"),
    )
    latency = registry.histogram(
        "repro_http_request_seconds",
        "HTTP request latency in seconds, by method and route template.",
        ("method", "route"),
    )

    def wrapped(request: Request) -> Response:
        started = time.perf_counter()
        response = handler(request)
        elapsed = time.perf_counter() - started
        pattern = getattr(getattr(request, "route", None), "pattern", None)
        route_label = pattern or "(unmatched)"
        requests_total.inc(request.method, route_label, str(response.status))
        latency.observe(elapsed, request.method, route_label)
        threshold_ms = _slow_request_threshold_ms()
        if threshold_ms is not None and elapsed * 1000.0 >= threshold_ms:
            logger.warning(
                "slow request: %s %s -> %d took %.1f ms (threshold %.0f ms)",
                request.method,
                request.path,
                response.status,
                elapsed * 1000.0,
                threshold_ms,
            )
        return response

    return wrapped


def logging_middleware(handler: Handler) -> Handler:
    """Log method, path, status, and latency per request."""

    def wrapped(request: Request) -> Response:
        started = time.perf_counter()
        response = handler(request)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        logger.info(
            "%s %s -> %d (%.1f ms)", request.method, request.path, response.status, elapsed_ms
        )
        return response

    return wrapped


def body_limit_middleware(max_bytes: int) -> Callable[[Handler], Handler]:
    """Reject requests whose body exceeds ``max_bytes`` with 413.

    The chunked upload protocol keeps individual requests small; this guard
    enforces that clients actually chunk instead of posting a whole
    data.csv at once.
    """
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")

    def factory(handler: Handler) -> Handler:
        def wrapped(request: Request) -> Response:
            if len(request.body) > max_bytes:
                raise HTTPError(
                    413,
                    f"request body of {len(request.body)} bytes exceeds the "
                    f"{max_bytes}-byte limit; use the chunked upload protocol",
                )
            return handler(request)

        return wrapped

    return factory
