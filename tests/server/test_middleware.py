"""Unit tests for the middleware stack."""

from __future__ import annotations

import logging

import pytest

from repro.data.validation import DatasetValidationError
from repro.server.http import HTTPError, Request, json_response
from repro.server.middleware import (
    body_limit_middleware,
    error_middleware,
    logging_middleware,
)


def ok_handler(request: Request):
    return json_response({"ok": True})


class TestErrorMiddleware:
    def test_passthrough(self):
        resp = error_middleware(ok_handler)(Request("GET", "/"))
        assert resp.status == 200

    def test_http_error_rendered(self):
        def handler(request):
            raise HTTPError(404, "nope", details={"hint": "x"})

        resp = error_middleware(handler)(Request("GET", "/"))
        assert resp.status == 404
        assert resp.json()["error"]["message"] == "nope"
        assert resp.json()["error"]["detail"] == {"hint": "x"}

    def test_validation_error_rendered_as_400(self):
        def handler(request):
            raise DatasetValidationError(["bad row 1", "bad row 2"])

        resp = error_middleware(handler)(Request("GET", "/"))
        assert resp.status == 400
        assert resp.json()["error"]["detail"] == ["bad row 1", "bad row 2"]

    def test_unexpected_error_is_500(self, caplog):
        def handler(request):
            raise RuntimeError("boom")

        with caplog.at_level(logging.ERROR, logger="repro.server"):
            resp = error_middleware(handler)(Request("GET", "/"))
        assert resp.status == 500
        assert "boom" in resp.json()["error"]["message"]


class TestBodyLimit:
    def test_under_limit_passes(self):
        handler = body_limit_middleware(10)(ok_handler)
        assert handler(Request("POST", "/", body=b"123")).status == 200

    def test_over_limit_rejected(self):
        handler = error_middleware(body_limit_middleware(10)(ok_handler))
        resp = handler(Request("POST", "/", body=b"x" * 11))
        assert resp.status == 413
        assert "chunked upload" in resp.json()["error"]["message"]

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            body_limit_middleware(0)


class TestLogging:
    def test_logs_request_line(self, caplog):
        handler = logging_middleware(ok_handler)
        with caplog.at_level(logging.INFO, logger="repro.server"):
            handler(Request("GET", "/datasets"))
        assert any("/datasets" in r.message and "200" in r.message for r in caplog.records)


class TestV1ErrorEnvelope:
    """Every failure renders the uniform error document."""

    def test_http_error_uses_envelope(self):
        def handler(request):
            raise HTTPError(404, "nope", details={"hint": "x"}, code="unknown_thing")

        resp = error_middleware(handler)(Request("GET", "/api/v1/things/1"))
        assert resp.status == 404
        assert resp.json() == {
            "error": {"code": "unknown_thing", "message": "nope",
                      "detail": {"hint": "x"}}
        }

    def test_default_code_derived_from_status(self):
        def handler(request):
            raise HTTPError(409, "busy")

        resp = error_middleware(handler)(Request("GET", "/api/v1/x"))
        assert resp.json()["error"]["code"] == "conflict"

    def test_validation_error_envelope(self):
        def handler(request):
            raise DatasetValidationError(["bad row 1"])

        resp = error_middleware(handler)(Request("POST", "/api/v1/x"))
        assert resp.status == 400
        body = resp.json()["error"]
        assert body["code"] == "validation_failed"
        assert body["detail"] == ["bad row 1"]

    def test_unexpected_error_envelope(self, caplog):
        def handler(request):
            raise RuntimeError("boom")

        with caplog.at_level(logging.ERROR, logger="repro.server"):
            resp = error_middleware(handler)(Request("GET", "/api/v1/x"))
        assert resp.status == 500
        assert resp.json()["error"]["code"] == "internal_error"
        assert "boom" in resp.json()["error"]["message"]

    def test_malformed_json_body_is_400(self):
        def handler(request):
            return json_response(request.json())

        resp = error_middleware(handler)(
            Request("POST", "/api/v1/datasets/x/results", body=b"{nope")
        )
        assert resp.status == 400
        assert resp.json()["error"]["code"] == "bad_request"
        assert "malformed" in resp.json()["error"]["message"]

    def test_unversioned_paths_get_the_envelope_too(self):
        def handler(request):
            raise HTTPError(404, "nope", details={"hint": "x"})

        resp = error_middleware(handler)(Request("GET", "/datasets/x"))
        assert resp.json() == {
            "error": {"code": "not_found", "message": "nope",
                      "detail": {"hint": "x"}}
        }

    def test_error_headers_merged_into_response(self):
        def handler(request):
            raise HTTPError(405, "no", headers={"Allow": "GET, POST"})

        resp = error_middleware(handler)(Request("PUT", "/api/v1/x"))
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET, POST"
