"""Self-describing API schema: router introspection → OpenAPI-style doc.

``GET /api/v1/schema`` serves :func:`build_schema` over the live router, so
the description can never drift from the registered routes — every
``Router.add`` call surfaces here with its method, path/query parameters,
and response descriptions.

Two artifacts hang off the generated document:

* ``API.md`` — the human-readable reference, rendered by
  :func:`render_markdown` (regenerate with
  ``python -m repro.server.schema --out API.md`` or
  ``repro-miscela schema --out API.md``);
* the CI route-parity gate — ``python -m repro.server.schema --check
  API.md`` fails when any registered route is missing from the schema
  output or from the committed reference, so adding a route without
  regenerating the docs breaks the build instead of silently rotting them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Mapping, Sequence

__all__ = ["build_schema", "render_markdown", "check_parity", "main"]

SCHEMA_VERSION = 1

_MD_HEADING = re.compile(r"^### `(?P<method>[A-Z]+) (?P<pattern>/\S*)`", re.MULTILINE)


def build_schema(router: Any) -> dict[str, Any]:
    """An OpenAPI-style description of every route registered on ``router``."""
    paths: dict[str, dict[str, Any]] = {}
    for route in router.describe():
        parameters = [
            {
                "name": param,
                "in": "path",
                "required": True,
                "type": "string",
            }
            for param in route["path_params"]
        ] + [
            {
                "name": query["name"],
                "in": "query",
                "required": False,
                "type": query.get("type", "string"),
                "description": query.get("description", ""),
            }
            for query in route["query"]
        ]
        responses = {
            status: {"description": description}
            for status, description in sorted(route["responses"].items())
        } or {"200": {"description": "success"}}
        operation: dict[str, Any] = {
            "operationId": route["name"],
            "summary": route["summary"],
            "parameters": parameters,
            "responses": responses,
        }
        paths.setdefault(route["pattern"], {})[route["method"].lower()] = operation
    return {
        "service": "miscela-v",
        "api_version": "v1",
        "schema_version": SCHEMA_VERSION,
        "generated_from": "repro.server.routing.Router introspection",
        "request_id_header": {
            "name": "X-Request-Id",
            "description": (
                "Every response (success and error envelope alike) carries "
                "X-Request-Id: the value the client sent, or a server-minted "
                "id.  Jobs submitted under it adopt it as their trace_id, so "
                "the id threads through GET /api/v1/jobs/{job_id}/trace and "
                "the persisted span tree."
            ),
        },
        "paths": {pattern: paths[pattern] for pattern in sorted(paths)},
    }


def _render_operation(method: str, pattern: str, operation: Mapping[str, Any]) -> list[str]:
    lines = [f"### `{method.upper()} {pattern}`", ""]
    if operation.get("summary"):
        lines += [operation["summary"], ""]
    query = [p for p in operation.get("parameters", ()) if p.get("in") == "query"]
    if query:
        lines += ["| Query parameter | Type | Description |", "|---|---|---|"]
        lines += [
            f"| `{p['name']}` | {p.get('type', 'string')} | {p.get('description', '')} |"
            for p in query
        ]
        lines.append("")
    responses = operation.get("responses", {})
    if responses:
        lines += ["| Status | Meaning |", "|---|---|"]
        lines += [
            f"| {status} | {body.get('description', '')} |"
            for status, body in sorted(responses.items())
        ]
        lines.append("")
    return lines


def render_markdown(schema: Mapping[str, Any]) -> str:
    """Render the schema document as the ``API.md`` reference."""
    v1: list[str] = []
    for pattern, operations in schema["paths"].items():
        for method, operation in sorted(operations.items()):
            v1 += _render_operation(method, pattern, operation)
    lines = [
        "# Miscela-V HTTP API reference",
        "",
        "> Generated from the live route table by"
        " `python -m repro.server.schema --out API.md` —"
        " **do not edit by hand**; CI's route-parity check"
        " (`python -m repro.server.schema --check API.md`) fails when this"
        " file and the registered routes disagree.",
        "",
        "The machine-readable form of this document is served at"
        " `GET /api/v1/schema`.",
        "",
        "## API v1 (current)",
        "",
        "Resource-oriented, versioned under `/api/v1`.  Mined results are"
        " first-class resources addressed by their cache key"
        " (`/api/v1/results/{key}`): metadata GETs carry an `ETag` derived"
        " from the cache key and the dataset generation (revalidate with"
        " `If-None-Match` for a 304), CAP lists page through"
        " `…/caps?offset=&limit=` with RFC-5988 `Link` headers, and errors"
        ' use the uniform envelope `{"error": {"code", "message",'
        ' "detail"}}`.',
        "",
        "Every response — success and error envelope alike — carries an"
        " `X-Request-Id` header: the id the client sent, or a server-minted"
        " one.  Jobs submitted under a request adopt its id as their"
        " `trace_id`, which threads through the persisted span tree served"
        " by `GET /api/v1/jobs/{job_id}/trace` (and `repro trace`).",
        "",
        *v1,
    ]
    return "\n".join(lines).rstrip() + "\n"


def check_parity(
    router: Any, schema: Mapping[str, Any], markdown: str
) -> list[str]:
    """Problems list: registered ↮ documented route drift, both directions.

    Forward: every registered route must appear in the schema output and
    in the Markdown reference.  Reverse: every documented route heading
    must still be registered — a deleted/renamed endpoint must not live on
    in API.md as if it answered.
    """
    problems: list[str] = []
    registered = set(router.routes())
    documented = {
        (m.group("method"), m.group("pattern"))
        for m in _MD_HEADING.finditer(markdown)
    }
    for method, pattern in router.routes():
        operations = schema["paths"].get(pattern, {})
        if method.lower() not in operations:
            problems.append(f"{method} {pattern}: missing from the schema output")
        if (method, pattern) not in documented:
            problems.append(f"{method} {pattern}: missing from API.md")
    for method, pattern in sorted(documented - registered):
        problems.append(
            f"{method} {pattern}: documented in API.md but not registered"
        )
    return problems


def _build_app_schema() -> tuple[dict[str, Any], Any]:
    """(schema, router) for the fully-assembled application."""
    from .app import create_app

    app = create_app(job_workers=1)
    try:
        return build_schema(app.router), app.router
    finally:
        app.close()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.schema",
        description="Emit or check the generated API schema/reference.",
    )
    parser.add_argument("--out", help="write the Markdown reference to this path")
    parser.add_argument(
        "--check",
        metavar="API_MD",
        help="verify every registered route appears in the schema and in "
             "this Markdown file; exit 1 on drift",
    )
    args = parser.parse_args(argv)
    emit = sys.stdout.write  # CLI output, not diagnostics — loggers stay quiet
    schema, router = _build_app_schema()
    if args.check:
        try:
            committed = open(args.check, encoding="utf-8").read()
        except OSError as exc:
            emit(f"cannot read {args.check}: {exc}\n")
            return 1
        problems = check_parity(router, schema, committed)
        if problems:
            emit(f"route parity check FAILED ({len(problems)} problems):\n")
            for problem in problems:
                emit(f"  - {problem}\n")
            emit("regenerate with: python -m repro.server.schema --out "
                 f"{args.check}\n")
            return 1
        emit(f"route parity OK: {len(router.routes())} routes documented "
             f"in {args.check}\n")
        return 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(schema))
        emit(f"wrote {args.out} ({len(router.routes())} routes)\n")
        return 0
    emit(json.dumps(schema, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
