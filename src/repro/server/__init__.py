"""API server — the django substitute (see DESIGN.md)."""

from .api_v1 import register_v1_routes
from .app import App, TestClient, create_app, create_wsgi_app
from .handlers import ServerState
from .http import (
    HTTPError,
    Request,
    Response,
    html_response,
    json_response,
    make_threaded_server,
    negotiate_media_type,
    svg_response,
)
from .middleware import body_limit_middleware, error_middleware, logging_middleware
from .routing import Route, Router

# NOTE: repro.server.schema is intentionally not imported here — it is run
# as ``python -m repro.server.schema`` and pre-importing it from the package
# __init__ would trigger runpy's double-import warning.

__all__ = [
    "App",
    "HTTPError",
    "Request",
    "Response",
    "Route",
    "Router",
    "ServerState",
    "TestClient",
    "body_limit_middleware",
    "create_app",
    "create_wsgi_app",
    "error_middleware",
    "html_response",
    "json_response",
    "logging_middleware",
    "make_threaded_server",
    "negotiate_media_type",
    "register_v1_routes",
    "svg_response",
]
