"""Unit tests for the URL router."""

from __future__ import annotations

import pytest

from repro.server.http import HTTPError, Request, json_response
from repro.server.routing import Router


@pytest.fixture
def router() -> Router:
    r = Router()

    @r.get("/datasets")
    def list_datasets(request):
        return json_response(["a"])

    @r.get("/datasets/{name}")
    def get_dataset(request):
        return json_response({"name": request.path_params["name"]})

    @r.post("/datasets/{name}/upload/chunk")
    def chunk(request):
        return json_response({"ok": True})

    @r.delete("/datasets/{name}")
    def delete(request):
        return json_response({"deleted": request.path_params["name"]})

    return r


class TestDispatch:
    def test_static_route(self, router):
        resp = router.dispatch(Request("GET", "/datasets"))
        assert resp.json() == ["a"]

    def test_path_params_captured(self, router):
        resp = router.dispatch(Request("GET", "/datasets/santander"))
        assert resp.json() == {"name": "santander"}

    def test_nested_params(self, router):
        resp = router.dispatch(Request("POST", "/datasets/x/upload/chunk"))
        assert resp.json() == {"ok": True}

    def test_404(self, router):
        with pytest.raises(HTTPError) as exc:
            router.dispatch(Request("GET", "/nope"))
        assert exc.value.status == 404

    def test_405_when_path_exists(self, router):
        with pytest.raises(HTTPError) as exc:
            router.dispatch(Request("POST", "/datasets"))
        assert exc.value.status == 405

    def test_method_match_on_same_pattern(self, router):
        resp = router.dispatch(Request("DELETE", "/datasets/x"))
        assert resp.json() == {"deleted": "x"}

    def test_param_does_not_cross_segments(self, router):
        with pytest.raises(HTTPError) as exc:
            router.dispatch(Request("GET", "/datasets/a/b"))
        assert exc.value.status == 404

    def test_routes_listing(self, router):
        patterns = [p for _, p in router.routes()]
        assert "/datasets/{name}" in patterns


class TestRegistration:
    def test_bad_method(self):
        r = Router()
        with pytest.raises(ValueError, match="method"):
            r.add("FETCH", "/x", lambda req: json_response({}))

    def test_pattern_must_start_with_slash(self):
        r = Router()
        with pytest.raises(ValueError, match="start with"):
            r.add("GET", "x", lambda req: json_response({}))

    def test_regex_chars_escaped(self):
        r = Router()
        r.add("GET", "/a.b", lambda req: json_response({"ok": 1}))
        with pytest.raises(HTTPError):
            r.dispatch(Request("GET", "/aXb"))  # '.' must not be a wildcard
        assert r.dispatch(Request("GET", "/a.b")).json() == {"ok": 1}


class TestErrorMetadata:
    """The 404/405 contract the v1 error envelope renders."""

    def test_404_carries_not_found_code(self, router):
        with pytest.raises(HTTPError) as exc:
            router.dispatch(Request("GET", "/api/v1/nope"))
        assert exc.value.status == 404
        assert exc.value.code == "not_found"

    def test_405_lists_allowed_methods(self, router):
        with pytest.raises(HTTPError) as exc:
            router.dispatch(Request("POST", "/datasets/x"))
        assert exc.value.status == 405
        assert exc.value.code == "method_not_allowed"
        assert exc.value.headers["Allow"] == "DELETE, GET"


class TestRouteMetadata:
    def test_summary_defaults_to_docstring(self):
        r = Router()

        @r.get("/x")
        def handler(request):
            """First line wins.

            Not this one.
            """
            return json_response({})

        description = r.describe()[0]
        assert description["summary"] == "First line wins."
        assert description["name"] == "handler"

    def test_declared_metadata_round_trips(self):
        r = Router()
        r.add(
            "GET", "/things/{thing_id}",
            lambda req: json_response({}),
            name="get_thing",
            summary="One thing.",
            query=({"name": "verbose", "type": "string", "description": "d"},),
            responses={"200": "the thing"},
        )
        description = r.describe()[0]
        assert description["path_params"] == ["thing_id"]
        assert description["query"] == [
            {"name": "verbose", "type": "string", "description": "d"}
        ]
        assert description["responses"] == {"200": "the thing"}

    def test_active_route_gets_no_deprecation_headers(self, router):
        response = router.dispatch(Request("GET", "/datasets"))
        assert "Deprecation" not in response.headers

    def test_dispatch_records_matched_route(self, router):
        request = Request("GET", "/datasets/x")
        router.dispatch(request)
        assert request.route is not None
        assert request.route.pattern == "/datasets/{name}"
