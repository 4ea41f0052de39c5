"""The self-describing schema endpoint and the route-parity gate."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.server.app import TestClient, create_app
from repro.server.schema import build_schema, check_parity, main, render_markdown

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
#: A single-method route the parity tests break on purpose.
CANCEL = "/api/v1/jobs/{job_id}/cancel"


@pytest.fixture(scope="module")
def app():
    app = create_app(job_workers=1)
    yield app
    app.close()


@pytest.fixture(scope="module")
def schema(app):
    return build_schema(app.router)


class TestSchemaEndpoint:
    def test_served_schema_matches_generator(self, app, schema):
        served = TestClient(app).get("/api/v1/schema")
        assert served.status == 200
        assert served.json() == schema

    def test_every_registered_route_appears(self, app, schema):
        for method, pattern in app.router.routes():
            assert pattern in schema["paths"], pattern
            assert method.lower() in schema["paths"][pattern], (method, pattern)

    def test_operations_carry_parameters_and_responses(self, schema):
        caps = schema["paths"]["/api/v1/results/{key}/caps"]["get"]
        names = {p["name"] for p in caps["parameters"]}
        assert {"key", "offset", "limit", "sensor", "attribute"} <= names
        path_param = next(p for p in caps["parameters"] if p["name"] == "key")
        assert path_param["in"] == "path" and path_param["required"] is True
        assert "200" in caps["responses"] and "304" in caps["responses"]

    def test_every_path_is_versioned(self, schema):
        for pattern, operations in schema["paths"].items():
            assert pattern == "/api/v1" or pattern.startswith("/api/v1/"), pattern
            for operation in operations.values():
                assert "deprecated" not in operation and "x-successor" not in operation

    def test_schema_is_json_stable(self, app):
        assert build_schema(app.router) == build_schema(app.router)


class TestMarkdownReference:
    def test_markdown_covers_every_route(self, app, schema):
        markdown = render_markdown(schema)
        assert check_parity(app.router, schema, markdown) == []

    def test_markdown_sections(self, schema):
        markdown = render_markdown(schema)
        assert "## API v1 (current)" in markdown
        assert "### `POST /api/v1/datasets/{name}/results`" in markdown
        assert "Deprecated" not in markdown

    def test_parity_detects_missing_route(self, app, schema):
        markdown = render_markdown(schema)
        broken = markdown.replace(f"### `POST {CANCEL}`", f"### `POST {CANCEL}led`")
        problems = check_parity(app.router, schema, broken)
        assert problems == [
            f"POST {CANCEL}: missing from API.md",
            f"POST {CANCEL}led: documented in API.md but not registered",
        ]

    def test_parity_detects_stale_documented_route(self, app, schema):
        markdown = render_markdown(schema) + "\n### `GET /removed/endpoint`\n"
        problems = check_parity(app.router, schema, markdown)
        assert problems == [
            "GET /removed/endpoint: documented in API.md but not registered"
        ]

    def test_parity_detects_schema_gap(self, app, schema):
        markdown = render_markdown(schema)
        pruned = {
            "paths": {k: v for k, v in schema["paths"].items() if k != CANCEL}
        }
        problems = check_parity(app.router, pruned, markdown)
        assert problems == [f"POST {CANCEL}: missing from the schema output"]


class TestCommittedReference:
    """The repo's API.md is the generated one — CI enforces this too."""

    def test_api_md_matches_registered_routes(self, app, schema):
        api_md = REPO_ROOT / "API.md"
        assert api_md.exists(), "API.md missing; run python -m repro.server.schema --out API.md"
        assert check_parity(app.router, schema, api_md.read_text()) == []


class TestCli:
    def test_check_passes_on_generated_file(self, tmp_path, capsys):
        target = tmp_path / "API.md"
        assert main(["--out", str(target)]) == 0
        assert main(["--check", str(target)]) == 0
        assert "route parity OK" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, capsys):
        target = tmp_path / "API.md"
        assert main(["--out", str(target)]) == 0
        target.write_text(target.read_text().replace(f"### `POST {CANCEL}`", ""))
        assert main(["--check", str(target)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_check_missing_file(self, tmp_path):
        assert main(["--check", str(tmp_path / "absent.md")]) == 1

    def test_json_output(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert '"/api/v1/schema"' in out
