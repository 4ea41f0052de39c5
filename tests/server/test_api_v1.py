"""The versioned resource API: the ISSUE-4 acceptance criteria.

* results are first-class resources (``201 Location``, stable keys, links);
* CAP pages concatenated over all offsets reproduce the full mined CAP
  list byte-identically;
* conditional GETs revalidate via ETag/If-None-Match with a 304;
* ``/api/v1`` is the only surface: a former unversioned path is a 404
  with the v1 error envelope;
* upload sessions are race-safe (concurrent ``begin`` → 409) and
  ``DELETE`` of a never-uploaded dataset invalidates nothing.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.jobs import TERMINAL_STATES
from repro.server.app import TestClient, create_app

PARAMS = recommended_parameters("santander").to_document()
TIMEOUT = 60.0


@pytest.fixture
def dataset():
    return generate_santander(seed=2, neighbourhoods=4, steps=240)


@pytest.fixture
def app(dataset):
    app = create_app()
    client = TestClient(app)
    response = client.upload_dataset(dataset, chunk_lines=1000)
    assert response.status == 201, response.json()
    yield app
    app.close()


@pytest.fixture
def client(app):
    return TestClient(app)


def create_result(client, params=PARAMS) -> tuple[str, dict]:
    response = client.post(
        "/api/v1/datasets/santander/results", json_body={"parameters": params}
    )
    assert response.status == 201, response.json()
    return response.json()["key"], response.json()


class TestResultResources:
    def test_post_creates_result_with_location(self, client):
        response = client.post(
            "/api/v1/datasets/santander/results", json_body={"parameters": PARAMS}
        )
        assert response.status == 201
        body = response.json()
        assert response.headers["Location"] == f"/api/v1/results/{body['key']}"
        assert response.headers["ETag"]
        assert body["num_caps"] > 0
        assert body["from_cache"] is False
        assert body["links"]["caps"] == f"/api/v1/results/{body['key']}/caps"

    def test_repeat_post_dedups_onto_same_resource(self, client):
        key, _ = create_result(client)
        again = client.post(
            "/api/v1/datasets/santander/results", json_body={"parameters": PARAMS}
        )
        assert again.status == 201
        assert again.json()["key"] == key
        assert again.json()["from_cache"] is True

    def test_post_requires_parameters(self, client):
        response = client.post("/api/v1/datasets/santander/results", json_body={})
        assert response.status == 400
        assert response.json()["error"]["code"] == "missing_fields"

    def test_post_unknown_dataset(self, client):
        response = client.post(
            "/api/v1/datasets/ghost/results", json_body={"parameters": PARAMS}
        )
        assert response.status == 404
        assert response.json()["error"]["code"] == "unknown_dataset"

    def test_metadata_is_small_and_linked(self, client):
        key, created = create_result(client)
        meta = client.get(f"/api/v1/results/{key}")
        assert meta.status == 200
        body = meta.json()
        assert body["key"] == key
        assert body["dataset"] == "santander"
        assert body["num_caps"] == created["num_caps"]
        assert "caps" not in body  # the CAP list is the …/caps sub-resource
        assert body["links"]["self"] == f"/api/v1/results/{key}"

    def test_unknown_result_404(self, client):
        response = client.get("/api/v1/results/deadbeef")
        assert response.status == 404
        assert response.json()["error"]["code"] == "unknown_result"

    def test_list_results_for_dataset(self, client):
        key, _ = create_result(client)
        loose = dict(PARAMS, min_support=5)
        other_key, _ = create_result(client, loose)
        listing = client.get("/api/v1/datasets/santander/results")
        assert listing.status == 200
        keys = {entry["key"] for entry in listing.json()["results"]}
        assert keys == {key, other_key}

    def test_delete_result(self, client):
        key, _ = create_result(client)
        assert client.delete(f"/api/v1/results/{key}").status == 204
        assert client.get(f"/api/v1/results/{key}").status == 404
        assert client.delete(f"/api/v1/results/{key}").status == 404

    def test_delete_dataset_204_and_404(self, client):
        assert client.delete("/api/v1/datasets/santander").status == 204
        assert client.delete("/api/v1/datasets/santander").status == 404


class TestCapsPagination:
    def test_pages_concatenate_to_legacy_mine_byte_identically(self, client, dataset):
        """The acceptance criterion: v1 pages ≡ the full mined CAP list."""
        direct = MiscelaMiner(MiningParameters.from_document(PARAMS)).mine(dataset)
        legacy_caps = [cap.to_document() for cap in direct.caps]
        key, created = create_result(client)
        assert created["num_caps"] == len(legacy_caps)

        limit = 7
        pages: list[dict] = []
        offset = 0
        while True:
            page = client.get(
                f"/api/v1/results/{key}/caps?offset={offset}&limit={limit}"
            )
            assert page.status == 200
            body = page.json()
            assert body["total"] == len(legacy_caps)
            pages.extend(body["caps"])
            if offset + limit >= body["total"]:
                assert 'rel="next"' not in page.headers["Link"]
                break
            assert 'rel="next"' in page.headers["Link"]
            offset += limit
        assert json.dumps(pages, sort_keys=True) == json.dumps(
            legacy_caps, sort_keys=True
        )

    def test_default_page_limit(self, client):
        key, _ = create_result(client)
        page = client.get(f"/api/v1/results/{key}/caps")
        assert page.json()["offset"] == 0
        assert page.json()["limit"] == 100

    def test_link_header_relations(self, client):
        key, _ = create_result(client)
        total = client.get(f"/api/v1/results/{key}/caps").json()["total"]
        assert total > 4
        middle = client.get(f"/api/v1/results/{key}/caps?offset=2&limit=2")
        link = middle.headers["Link"]
        for rel in ("first", "last", "prev", "next"):
            assert f'rel="{rel}"' in link
        first = client.get(f"/api/v1/results/{key}/caps?offset=0&limit=2")
        assert 'rel="prev"' not in first.headers["Link"]

    def test_offset_beyond_total_is_empty_page(self, client):
        key, _ = create_result(client)
        page = client.get(f"/api/v1/results/{key}/caps?offset=100000&limit=10")
        assert page.status == 200
        assert page.json()["caps"] == []

    def test_sensor_filter_uses_inverted_index(self, client, dataset):
        key, _ = create_result(client)
        all_caps = client.get(f"/api/v1/results/{key}/caps?limit=1000").json()["caps"]
        sensor = all_caps[0]["sensors"][0]
        expected = [cap for cap in all_caps if sensor in cap["sensors"]]
        page = client.get(f"/api/v1/results/{key}/caps?sensor={sensor}&limit=1000")
        assert page.json()["total"] == len(expected)
        assert page.json()["caps"] == expected
        assert f"sensor={sensor}" in page.headers["Link"]

    def test_attribute_filter(self, client):
        key, _ = create_result(client)
        all_caps = client.get(f"/api/v1/results/{key}/caps?limit=1000").json()["caps"]
        attribute = all_caps[0]["attributes"][0]
        expected = [cap for cap in all_caps if attribute in cap["attributes"]]
        page = client.get(
            f"/api/v1/results/{key}/caps?attribute={attribute}&limit=1000"
        )
        assert page.json()["total"] == len(expected)
        assert page.json()["caps"] == expected

    @pytest.mark.parametrize(
        "query", ["offset=-1", "offset=x", "limit=0", "limit=1001", "limit=ten"]
    )
    def test_invalid_pagination_rejected(self, client, query):
        key, _ = create_result(client)
        response = client.get(f"/api/v1/results/{key}/caps?{query}")
        assert response.status == 400
        assert response.json()["error"]["code"] == "invalid_pagination"


class TestConditionalGets:
    def test_repeated_get_with_etag_is_304(self, client):
        key, _ = create_result(client)
        first = client.get(f"/api/v1/results/{key}")
        etag = first.headers["ETag"]
        again = client.get(f"/api/v1/results/{key}", headers={"If-None-Match": etag})
        assert again.status == 304
        assert again.body == b""
        assert again.headers["ETag"] == etag

    def test_stale_etag_gets_fresh_representation(self, client):
        key, _ = create_result(client)
        response = client.get(
            f"/api/v1/results/{key}", headers={"If-None-Match": '"stale"'}
        )
        assert response.status == 200

    def test_if_none_match_star(self, client):
        key, _ = create_result(client)
        assert (
            client.get(f"/api/v1/results/{key}", headers={"If-None-Match": "*"}).status
            == 304
        )

    def test_ambiguous_filter_combinations_get_distinct_etags(self, client):
        # "sensor=s-1" and "sensor=s&attribute=1" must never share an ETag
        # (a naive '-'-joined suffix would collide).
        key, _ = create_result(client)
        one = client.get(f"/api/v1/results/{key}/caps?sensor=s-1")
        two = client.get(f"/api/v1/results/{key}/caps?sensor=s&attribute=1")
        assert one.headers["ETag"] != two.headers["ETag"]

    def test_caps_pages_validate_per_page(self, client):
        key, _ = create_result(client)
        page_a = client.get(f"/api/v1/results/{key}/caps?offset=0&limit=2")
        page_b = client.get(f"/api/v1/results/{key}/caps?offset=2&limit=2")
        assert page_a.headers["ETag"] != page_b.headers["ETag"]
        revalidated = client.get(
            f"/api/v1/results/{key}/caps?offset=0&limit=2",
            headers={"If-None-Match": page_a.headers["ETag"]},
        )
        assert revalidated.status == 304


class TestAsyncJobsV1:
    def test_async_submission_links_through_to_result(self, client):
        submitted = client.post(
            "/api/v1/datasets/santander/results",
            json_body={"parameters": PARAMS, "mode": "async"},
        )
        assert submitted.status == 202
        body = submitted.json()
        job_url = submitted.headers["Location"]
        assert job_url == body["links"]["self"] == f"/api/v1/jobs/{body['job_id']}"
        assert body["deduplicated"] is False

        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            doc = client.get(job_url).json()
            if doc["state"] in TERMINAL_STATES:
                break
            time.sleep(0.02)
        assert doc["state"] == "succeeded", doc.get("error")
        assert doc["links"]["result"] == f"/api/v1/results/{doc['result_key']}"
        assert "result" not in doc  # v1 links instead of inlining
        result = client.get(doc["links"]["result"])
        assert result.status == 200
        assert result.json()["num_caps"] > 0

    def test_job_listing_carries_links(self, client):
        submitted = client.post(
            "/api/v1/datasets/santander/results",
            json_body={"parameters": PARAMS, "mode": "async"},
        )
        job_id = submitted.json()["job_id"]
        jobs = client.get("/api/v1/jobs").json()["jobs"]
        assert [job["job_id"] for job in jobs] == [job_id]
        assert jobs[0]["links"]["self"] == f"/api/v1/jobs/{job_id}"
        assert client.get("/api/v1/jobs?status=bogus").status == 400

    def test_cancel_unknown_and_finished(self, client):
        assert client.post("/api/v1/jobs/job-404-x/cancel").status == 404
        submitted = client.post(
            "/api/v1/datasets/santander/results",
            json_body={"parameters": PARAMS, "mode": "async"},
        )
        job_id = submitted.json()["job_id"]
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            if client.get(f"/api/v1/jobs/{job_id}").json()["state"] in TERMINAL_STATES:
                break
            time.sleep(0.02)
        response = client.post(f"/api/v1/jobs/{job_id}/cancel")
        assert response.status == 409
        assert response.json()["error"]["code"] == "job_finished"


class TestVizContentNegotiation:
    def test_default_is_html(self, client):
        response = client.get("/api/v1/datasets/santander/viz/map")
        assert response.status == 200
        assert "text/html" in response.headers["Content-Type"]
        assert response.body.startswith(b"<!DOCTYPE html>")

    def test_svg_via_accept(self, client):
        response = client.get(
            "/api/v1/datasets/santander/viz/map",
            headers={"Accept": "image/svg+xml"},
        )
        assert response.status == 200
        assert "image/svg+xml" in response.headers["Content-Type"]
        assert response.body.startswith(b"<svg")

    def test_quality_values_respected(self, client):
        response = client.get(
            "/api/v1/datasets/santander/viz/map",
            headers={"Accept": "text/html;q=0.1, image/svg+xml;q=0.9"},
        )
        assert "image/svg+xml" in response.headers["Content-Type"]

    def test_wildcard_accept_defaults_to_html(self, client):
        response = client.get(
            "/api/v1/datasets/santander/viz/map", headers={"Accept": "*/*"}
        )
        assert "text/html" in response.headers["Content-Type"]

    def test_unsatisfiable_accept_is_406(self, client):
        response = client.get(
            "/api/v1/datasets/santander/viz/map",
            headers={"Accept": "application/json"},
        )
        assert response.status == 406
        assert response.json()["error"]["code"] == "not_acceptable"

    def test_timeseries_and_heatmap_negotiate_too(self, client, dataset):
        ids = ",".join(dataset.sensor_ids[:2])
        for path in (
            f"/api/v1/datasets/santander/viz/timeseries?sensors={ids}",
            f"/api/v1/datasets/santander/viz/heatmap?sensors={ids}",
        ):
            svg = client.get(path, headers={"Accept": "image/svg+xml"})
            assert svg.status == 200 and svg.body.startswith(b"<svg")


class TestServiceDocuments:
    def test_v1_index_links(self, client):
        body = client.get("/api/v1").json()
        assert body["api_version"] == "v1"
        assert body["links"]["schema"] == "/api/v1/schema"

    def test_correlated_sensors(self, client):
        key, _ = create_result(client)
        caps = client.get(f"/api/v1/results/{key}/caps?limit=1").json()["caps"]
        sensor = caps[0]["sensors"][0]
        response = client.get(
            f"/api/v1/datasets/santander/sensors/{sensor}/correlated"
        )
        assert response.status == 200
        assert response.json()["correlated"]

    def test_admin_endpoints(self, client):
        stats = client.get("/api/v1/admin/stats").json()
        assert "store" in stats and "cache" in stats and "jobs" in stats
        by_dataset = client.get("/api/v1/admin/results-by-dataset")
        assert by_dataset.status == 200


#: Paths the pre-v1 unversioned surface answered on (one per route family).
FORMER_UNVERSIONED = [
    ("GET", "/"),
    ("GET", "/datasets"),
    ("GET", "/datasets/santander"),
    ("POST", "/datasets/x/upload/begin"),
    ("POST", "/mine"),
    ("GET", "/jobs"),
    ("GET", "/caps/santander"),
    ("GET", "/viz/santander/map"),
    ("GET", "/admin/stats"),
]


class TestOneSurface:
    """``/api/v1`` is the whole HTTP surface."""

    def test_every_route_is_versioned(self, app):
        patterns = [pattern for _method, pattern in app.router.routes()]
        assert patterns
        assert all(
            p == "/api/v1" or p.startswith("/api/v1/") for p in patterns
        ), [p for p in patterns if not p.startswith("/api/v1")]

    def test_former_unversioned_paths_answer_404_envelope(self, client):
        for method, path in FORMER_UNVERSIONED:
            body = {"dataset": "santander", "parameters": PARAMS} if method == "POST" else None
            response = client.request(method, path, json_body=body)
            assert response.status == 404, (method, path)
            error = response.json()["error"]
            assert error["code"] == "not_found", (method, path)
            assert error["message"] == f"no route for {path}"
            assert "Deprecation" not in response.headers


class TestUploadSessionSafety:
    def test_second_begin_conflicts(self, client):
        body = {"location_csv": "id,attribute,lat,lon\n", "attribute_csv": "t\n"}
        assert client.post("/api/v1/datasets/x/upload/begin", json_body=body).status == 201
        conflict = client.post("/api/v1/datasets/x/upload/begin", json_body=body)
        assert conflict.status == 409
        assert conflict.json()["error"]["code"] == "upload_in_progress"

    def test_abort_releases_the_session(self, client):
        body = {"location_csv": "id,attribute,lat,lon\n", "attribute_csv": "t\n"}
        assert client.post("/api/v1/datasets/x/upload/begin", json_body=body).status == 201
        assert client.post("/api/v1/datasets/x/upload/abort").status == 200
        assert client.post("/api/v1/datasets/x/upload/abort").status == 409
        assert client.post("/api/v1/datasets/x/upload/begin", json_body=body).status == 201

    def test_concurrent_begins_yield_exactly_one_session(self, client):
        body = {"location_csv": "id,attribute,lat,lon\n", "attribute_csv": "t\n"}
        barrier = threading.Barrier(8)
        statuses: list[int] = []
        lock = threading.Lock()

        def begin():
            barrier.wait()
            response = client.post("/api/v1/datasets/raced/upload/begin", json_body=body)
            with lock:
                statuses.append(response.status)

        threads = [threading.Thread(target=begin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(statuses) == [201] + [409] * 7


class TestDeleteDatasetInvalidation:
    def test_delete_of_unknown_dataset_invalidates_nothing(self, app, client):
        generation = app.state.dataset_generation("santander")
        key, _ = create_result(client)
        assert client.delete("/api/v1/datasets/ghost").status == 404
        # No generation bump anywhere, no cache invalidation, no job cancels.
        assert app.state.dataset_generation("ghost") == 0
        assert app.state.dataset_generation("santander") == generation
        assert client.get(f"/api/v1/results/{key}").status == 200

    def test_delete_of_unknown_dataset_leaves_jobs_alone(
        self, app, client, worker_mine, tmp_path
    ):
        release = tmp_path / "release"
        worker_mine(steps=1, gate=str(release))
        submitted = client.post(
            "/api/v1/datasets/santander/results",
            json_body={"parameters": PARAMS, "mode": "async"},
        )
        job_url = submitted.headers["Location"]
        deadline = time.monotonic() + TIMEOUT
        while client.get(job_url).json()["progress"] == 0:  # the worker started
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert client.delete("/api/v1/datasets/ghost").status == 404
        doc = client.get(job_url).json()
        assert doc["state"] == "running"
        assert doc["cancel_requested"] is False
        release.touch()
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            doc = client.get(job_url).json()
            if doc["state"] in TERMINAL_STATES:
                break
            time.sleep(0.02)
        assert doc["state"] == "succeeded"
