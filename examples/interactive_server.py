"""Run the Miscela-V API server (the paper's Figure-2 architecture).

Starts the WSGI app under the threaded ``wsgiref`` server, uploads the
synthetic Santander dataset through the chunked protocol, and prints the
curl-able endpoints.

Run:
    python examples/interactive_server.py [port]

Then, from another shell (the versioned resource API):

    curl localhost:8000/api/v1                    # service doc + links
    curl localhost:8000/api/v1/schema             # generated route schema
    curl localhost:8000/api/v1/datasets
    curl -i -X POST localhost:8000/api/v1/datasets/santander/results \
      -d '{"parameters": {"evolving_rate": 3.0, "distance_threshold": 0.35, \
           "max_attributes": 3, "min_support": 10}}'
    # -> 201 with "Location: /api/v1/results/<key>" and an ETag

    curl localhost:8000/api/v1/results/<key>      # metadata (ETag again)
    curl -i localhost:8000/api/v1/results/<key> -H 'If-None-Match: <etag>'
    # -> 304 Not Modified

    curl 'localhost:8000/api/v1/results/<key>/caps?offset=0&limit=20'
    curl 'localhost:8000/api/v1/results/<key>/caps?sensor=<id>'
    curl localhost:8000/api/v1/datasets/santander/viz/map > map.html
    curl -H 'Accept: image/svg+xml' \
      localhost:8000/api/v1/datasets/santander/viz/map > map.svg
    curl localhost:8000/api/v1/admin/stats

Long mines need not block the map — submit asynchronously and poll:

    curl -i -X POST localhost:8000/api/v1/datasets/santander/results \
      -d '{"mode": "async", "parameters": {"evolving_rate": 3.0, \
           "distance_threshold": 0.35, "max_attributes": 3, "min_support": 10}}'
    # -> 202 with "Location: /api/v1/jobs/<job_id>"
    curl localhost:8000/api/v1/jobs               # all jobs (with links)
    curl localhost:8000/api/v1/jobs/<job_id>      # status + result link
    curl -X POST localhost:8000/api/v1/jobs/<job_id>/cancel

Every route lives under ``/api/v1``; any other path is a 404 in the same
``{"error": {"code", "message", "detail"}}`` envelope.
"""

from __future__ import annotations

import sys

from repro import generate_santander
from repro.server import TestClient, create_app
from repro.server.http import make_threaded_server, wsgi_adapter


def main(port: int = 8000) -> None:
    app = create_app(with_logging=True)

    # Pre-load the demo dataset exactly as a browser client would: via the
    # three-step chunked upload.
    dataset = generate_santander(seed=7)
    response = TestClient(app).upload_dataset(dataset, chunk_lines=10_000)
    assert response.status == 201, response.json()
    print(f"pre-loaded dataset 'santander' "
          f"({len(dataset)} sensors, {dataset.num_records} records)")

    # Thread-per-request: job polls and map clicks answer during a mine.
    server = make_threaded_server("127.0.0.1", port, wsgi_adapter(app))
    print(f"Miscela-V API listening on http://127.0.0.1:{port}")
    print("try:  curl localhost:%d/api/v1          (service doc + links)" % port)
    print("      curl localhost:%d/api/v1/schema   (generated route schema)" % port)
    print("      curl localhost:%d/api/v1/datasets" % port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        app.close()
        print("\nbye")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8000)
