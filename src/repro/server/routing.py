"""URL routing.

A tiny django-style URL dispatcher: routes are method + path patterns with
``{name}`` placeholders, matched in registration order.  ``{name}``
captures one path segment; captured values land in ``request.path_params``.

Routes carry *metadata* beyond the handler — a name, a one-line summary
(defaulting to the handler's docstring), declared query parameters and
response descriptions.  ``GET /api/v1/schema`` (:mod:`repro.server.schema`)
walks :meth:`Router.describe` and emits an OpenAPI-style document covering
every registered route; the CI route-parity check keeps `API.md` in sync
with it.  A method mismatch raises a 405 carrying the ``Allow`` header.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .http import HTTPError, Request, Response

__all__ = ["Router", "Route"]

Handler = Callable[[Request], Response]

_PLACEHOLDER = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile_pattern(pattern: str) -> re.Pattern[str]:
    if not pattern.startswith("/"):
        raise ValueError(f"route pattern must start with '/', got {pattern!r}")
    parts: list[str] = []
    last = 0
    for match in _PLACEHOLDER.finditer(pattern):
        parts.append(re.escape(pattern[last : match.start()]))
        parts.append(f"(?P<{match.group(1)}>[^/]+)")
        last = match.end()
    parts.append(re.escape(pattern[last:]))
    return re.compile("^" + "".join(parts) + "$")


@dataclass(frozen=True)
class Route:
    method: str
    pattern: str
    regex: re.Pattern[str]
    handler: Handler
    #: Operation id for the schema (defaults to the handler's ``__name__``).
    name: str = ""
    #: One-line human description (defaults to the docstring's first line).
    summary: str = ""
    #: Declared query parameters: ``{"name", "type", "description"}`` dicts.
    query: tuple[Mapping[str, str], ...] = ()
    #: Response descriptions keyed by status code string.
    responses: Mapping[str, str] = field(default_factory=dict)

    @property
    def path_params(self) -> list[str]:
        return _PLACEHOLDER.findall(self.pattern)


class Router:
    """Ordered route table with 404/405 semantics and schema introspection."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(
        self,
        method: str,
        pattern: str,
        handler: Handler,
        *,
        name: str | None = None,
        summary: str | None = None,
        query: Sequence[Mapping[str, str]] = (),
        responses: Mapping[str, str] | None = None,
    ) -> None:
        method = method.upper()
        if method not in ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD"):
            raise ValueError(f"unsupported method {method!r}")
        if name is None:
            name = getattr(handler, "__name__", "") or ""
        if summary is None:
            doc = (getattr(handler, "__doc__", "") or "").strip()
            summary = doc.splitlines()[0].strip() if doc else ""
        self._routes.append(
            Route(
                method,
                pattern,
                _compile_pattern(pattern),
                handler,
                name=name,
                summary=summary,
                query=tuple(dict(q) for q in query),
                responses=dict(responses or {}),
            )
        )

    def get(self, pattern: str, **meta: Any) -> Callable[[Handler], Handler]:
        """Decorator form: ``@router.get("/api/v1/results/{key}")``."""
        return self._decorator("GET", pattern, **meta)

    def post(self, pattern: str, **meta: Any) -> Callable[[Handler], Handler]:
        return self._decorator("POST", pattern, **meta)

    def delete(self, pattern: str, **meta: Any) -> Callable[[Handler], Handler]:
        return self._decorator("DELETE", pattern, **meta)

    def patch(self, pattern: str, **meta: Any) -> Callable[[Handler], Handler]:
        return self._decorator("PATCH", pattern, **meta)

    def _decorator(
        self, method: str, pattern: str, **meta: Any
    ) -> Callable[[Handler], Handler]:
        def register(handler: Handler) -> Handler:
            self.add(method, pattern, handler, **meta)
            return handler

        return register

    def dispatch(self, request: Request) -> Response:
        """Route a request; raises 404/405 HTTPError when nothing matches."""
        allowed: set[str] = set()
        for route in self._routes:
            match = route.regex.match(request.path)
            if match is None:
                continue
            if route.method != request.method:
                allowed.add(route.method)
                continue
            request.path_params = dict(match.groupdict())
            request.route = route
            return route.handler(request)
        if allowed:
            raise HTTPError(
                405,
                f"method {request.method} not allowed for {request.path}",
                code="method_not_allowed",
                headers={"Allow": ", ".join(sorted(allowed))},
            )
        raise HTTPError(404, f"no route for {request.path}", code="not_found")

    def routes(self) -> list[tuple[str, str]]:
        """(method, pattern) pairs — the API index endpoint's payload."""
        return [(r.method, r.pattern) for r in self._routes]

    def describe(self) -> list[dict[str, Any]]:
        """Full metadata per route — the schema generator's input."""
        return [
            {
                "method": route.method,
                "pattern": route.pattern,
                "name": route.name,
                "summary": route.summary,
                "path_params": route.path_params,
                "query": [dict(q) for q in route.query],
                "responses": dict(route.responses),
            }
            for route in self._routes
        ]
