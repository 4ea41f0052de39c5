"""Minimal HTTP request/response model for the API server.

The paper uses django purely as an API layer between the JavaScript front
end, MISCELA, and MongoDB.  We reproduce that layer as plain WSGI: this
module defines the framework-ish primitives (:class:`Request`,
:class:`Response`, :class:`HTTPError`) and the WSGI adapter; routing and
handlers live in their own modules so "we can modify each component
individually" (Section 3.4) holds here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence
from urllib.parse import parse_qs

__all__ = ["Request", "Response", "HTTPError", "json_response", "wsgi_adapter"]

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    301: "Moved Permanently",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    406: "Not Acceptable",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Machine-readable error codes for the v1 error envelope, by status.
_DEFAULT_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    406: "not_acceptable",
    409: "conflict",
    410: "gone",
    413: "payload_too_large",
    500: "internal_error",
}


class HTTPError(Exception):
    """An error with an HTTP status; the middleware renders it as JSON.

    ``code`` is the stable machine-readable identifier the v1 error
    envelope exposes (defaults to a per-status constant); ``headers`` are
    merged into the rendered error response (e.g. ``Allow`` on a 405).
    """

    def __init__(
        self,
        status: int,
        message: str,
        details: Any = None,
        code: str | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.details = details
        self.code = code if code is not None else _DEFAULT_ERROR_CODES.get(status, "error")
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Mapping[str, list[str]] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Filled by the router with the matched path parameters.
    path_params: dict[str, str] = field(default_factory=dict)
    #: Filled by the router with the matched route, so the metrics layer
    #: labels the request by its route template.
    route: Any = field(default=None, repr=False, compare=False)
    #: Filled by the request-id middleware: the honored ``X-Request-Id``
    #: header or a freshly minted id.  Stamped onto submitted jobs so
    #: spans across processes share the request's trace.
    trace_id: str | None = None

    def param(self, name: str, default: str | None = None) -> str | None:
        """First query-string value for ``name``."""
        values = self.query.get(name)
        return values[0] if values else default

    def json(self) -> Any:
        """Parse the body as JSON; raises 400 on malformed input."""
        if not self.body:
            raise HTTPError(400, "expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"malformed JSON body: {exc}") from exc

    def text(self) -> str:
        """The body as UTF-8 text (CSV chunk uploads)."""
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HTTPError(400, f"body is not valid UTF-8: {exc}") from exc


@dataclass
class Response:
    """One HTTP response."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def status_line(self) -> str:
        return f"{self.status} {_STATUS_TEXT.get(self.status, 'Unknown')}"

    def json(self) -> Any:
        """Decode the body as JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8")) if self.body else None


def json_response(payload: Any, status: int = 200) -> Response:
    """A JSON response with the right content type."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return Response(
        status=status,
        headers={"Content-Type": "application/json; charset=utf-8"},
        body=body,
    )


def html_response(markup: str, status: int = 200) -> Response:
    """An HTML response (the visualization endpoints)."""
    return Response(
        status=status,
        headers={"Content-Type": "text/html; charset=utf-8"},
        body=markup.encode("utf-8"),
    )


def svg_response(markup: str, status: int = 200) -> Response:
    """A raw SVG response (``Accept: image/svg+xml`` on viz endpoints)."""
    return Response(
        status=status,
        headers={"Content-Type": "image/svg+xml; charset=utf-8"},
        body=markup.encode("utf-8"),
    )


def negotiate_media_type(request: Request, offered: Sequence[str]) -> str:
    """Pick the best of ``offered`` media types for the request's Accept.

    Standard q-value negotiation, simplified to what the viz endpoints
    need: exact types beat ``type/*`` beat ``*/*``; among equal matches the
    client's header order wins, and with no ``Accept`` header (or an
    unweighted wildcard tie) the server's first offer is the default.
    Raises a 406 when the header excludes every offered type.
    """
    header = (request.headers or {}).get("accept", "")
    if not header.strip():
        return offered[0]
    ranges: list[tuple[str, float, int]] = []
    for position, part in enumerate(header.split(",")):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(";")
        media = pieces[0].strip().lower()
        quality = 1.0
        for piece in pieces[1:]:
            piece = piece.strip()
            if piece.startswith("q="):
                try:
                    quality = float(piece[2:])
                except ValueError:
                    quality = 0.0
        ranges.append((media, quality, position))
    best: tuple[float, int, int] | None = None
    best_offer = ""
    for offer in offered:
        main_type = offer.split("/", 1)[0]
        for media, quality, position in ranges:
            if quality <= 0.0:
                continue
            if media == offer:
                specificity = 2
            elif media == f"{main_type}/*":
                specificity = 1
            elif media == "*/*":
                specificity = 0
            else:
                continue
            candidate = (quality, specificity, -position)
            if best is None or candidate > best:
                best = candidate
                best_offer = offer
    if best is None:
        raise HTTPError(
            406,
            f"cannot satisfy Accept: {header!r}; offered types: {', '.join(offered)}",
            details={"offered": list(offered)},
        )
    return best_offer


Handler = Callable[[Request], Response]


def wsgi_adapter(handler: Handler) -> Callable[..., Iterable[bytes]]:
    """Wrap the app's root handler as a WSGI callable (for ``wsgiref``)."""

    def application(environ: Mapping[str, Any], start_response: Callable[..., Any]) -> Iterable[bytes]:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        body = environ["wsgi.input"].read(length) if length else b""
        headers = {
            key[5:].replace("_", "-").lower(): value
            for key, value in environ.items()
            if key.startswith("HTTP_")
        }
        if environ.get("CONTENT_TYPE"):
            headers["content-type"] = environ["CONTENT_TYPE"]
        request = Request(
            method=environ.get("REQUEST_METHOD", "GET").upper(),
            path=environ.get("PATH_INFO", "/"),
            query=parse_qs(environ.get("QUERY_STRING", "")),
            headers=headers,
            body=body,
        )
        response = handler(request)
        start_response(response.status_line, sorted(response.headers.items()))
        return [response.body]

    return application


def make_threaded_server(host: str, port: int, wsgi_app: Callable[..., Iterable[bytes]]):
    """A ``wsgiref`` server that handles each request on its own thread.

    The stock ``make_server`` is single-threaded: one long sync mine
    freezes every map click until mining finishes.  Mixing in
    :class:`socketserver.ThreadingMixIn` gives a thread per request, so
    job-status polls and visualization requests are answered while a mine
    runs (sync on a request thread, or async on the job executor).  Daemon
    threads: in-flight requests don't block interpreter exit on Ctrl-C.
    """
    from socketserver import ThreadingMixIn
    from wsgiref.simple_server import WSGIServer, make_server

    class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
        daemon_threads = True

    return make_server(host, port, wsgi_app, server_class=ThreadingWSGIServer)


__all__.append("html_response")
__all__.append("svg_response")
__all__.append("negotiate_media_type")
__all__.append("make_threaded_server")
