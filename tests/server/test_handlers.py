"""Integration tests for the API: the full Figure-2 flow over the TestClient."""

from __future__ import annotations

import threading

import pytest

from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_china6, generate_santander
from repro.server.app import TestClient, create_app
from repro.store import Database, thaw
from tests.conftest import mine_v1, result_caps


@pytest.fixture
def dataset():
    return generate_santander(seed=2, neighbourhoods=4, steps=240)


@pytest.fixture
def client(dataset):
    app = create_app()
    client = TestClient(app)
    response = client.upload_dataset(dataset, chunk_lines=1000)
    assert response.status == 201, response.json()
    return client


PARAMS = recommended_parameters("santander").to_document()
API = "/api/v1"


def mine(client, params=PARAMS, dataset="santander"):
    return mine_v1(client, dataset, params)


class TestUploadFlow:
    def test_upload_registers_dataset(self, client):
        listing = client.get(f"{API}/datasets").json()["datasets"]
        assert [entry["name"] for entry in listing] == ["santander"]

    def test_describe(self, client, dataset):
        desc = client.get(f"{API}/datasets/santander").json()
        assert desc["sensors"] == len(dataset)
        assert desc["records"] == dataset.num_records

    def test_chunk_without_begin_conflicts(self, client):
        resp = client.post(
            f"{API}/datasets/ghost/upload/chunk", text_body="id,attribute,time,data\n"
        )
        assert resp.status == 409

    def test_finish_without_begin_conflicts(self, client):
        assert client.post(f"{API}/datasets/ghost/upload/finish").status == 409

    def test_begin_requires_fields(self, client):
        resp = client.post(f"{API}/datasets/x/upload/begin", json_body={"location_csv": ""})
        assert resp.status == 400
        assert "attribute_csv" in str(resp.json())

    def test_invalid_chunk_rejected(self, client):
        begin = client.post(
            f"{API}/datasets/x/upload/begin",
            json_body={"location_csv": "id,attribute,lat,lon\ns,t,0,0\n", "attribute_csv": "t\n"},
        )
        assert begin.status == 201
        resp = client.post(f"{API}/datasets/x/upload/chunk", text_body="garbage")
        assert resp.status == 400

    def test_delete_dataset(self, client):
        assert client.delete(f"{API}/datasets/santander").status == 204
        assert client.get(f"{API}/datasets/santander").status == 404
        assert client.delete(f"{API}/datasets/santander").status == 404

    def test_reupload_invalidates_cache(self, client, dataset):
        mine(client)
        stats = client.get(f"{API}/admin/stats").json()
        assert stats["cache"]["entries"] == 1
        client.upload_dataset(dataset, chunk_lines=1000)
        stats = client.get(f"{API}/admin/stats").json()
        assert stats["cache"]["entries"] == 0


    def test_replace_and_delete_are_one_critical_section(
        self, dataset, tmp_path, monkeypatch
    ):
        """On a store path, a re-upload and a delete each run in exactly one
        outermost ``exclusive()`` section (each one ends in ``_wal_sync``),
        so no process sharing the store sees a half-replaced dataset."""
        app = create_app(Database(tmp_path / "db.json"))
        try:
            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            assert mine(client).status == 201
            database = app.state.database
            caller = threading.current_thread()
            sections: list[str] = []
            sync = database._wal_sync

            def counting_sync() -> None:
                if threading.current_thread() is caller:  # not the claim loops
                    sections.append("section")
                sync()

            monkeypatch.setattr(database, "_wal_sync", counting_sync)
            app.state.put_dataset(dataset)
            assert len(sections) == 1
            assert app.state.cache.documents("santander") == []
            sections.clear()
            assert app.state.delete_dataset("santander")
            assert len(sections) == 1
        finally:
            app.close()


class TestMining:
    def test_mine_returns_caps(self, client):
        resp = mine(client)
        assert resp.status == 201
        payload = resp.json()
        assert payload["num_caps"] == len(result_caps(client, payload["key"])) > 0
        assert not payload["from_cache"]

    def test_second_mine_hits_cache(self, client):
        mine(client)
        assert mine(client).json()["from_cache"]

    def test_mine_unknown_dataset(self, client):
        assert mine(client, dataset="ghost").status == 404

    def test_mine_invalid_parameters(self, client):
        bad = dict(PARAMS, min_support=0)
        assert mine(client, bad).status == 400

    @pytest.mark.parametrize(
        "override", [{"max_sensors": 2.5}, {"max_delay": 1.5}, {"evolving_backend": "gpu"}]
    )
    def test_mine_rejects_invalid_values(self, client, override):
        resp = mine(client, dict(PARAMS, **override))
        assert resp.status == 400
        assert resp.json()["error"]["code"] == "invalid_parameters"

    def test_mine_accepts_legacy_backend_field(self, client):
        key = mine(client).json()["key"]
        legacy = mine(client, dict(PARAMS, evolving_backend="array")).json()
        assert legacy["key"] == key and legacy["from_cache"]

    def test_stored_legacy_result_serves(self, dataset):
        """A result stored with ``evolving_backend: "array"`` still decodes."""
        database = Database()
        first = TestClient(create_app(database=database))
        assert first.upload_dataset(dataset, chunk_lines=1000).status == 201
        key = mine(first).json()["key"]
        caps = result_caps(first, key)
        results = database.collection("cap_results")
        document = thaw(results.find_one({"key": key}))
        document["result"]["parameters"]["evolving_backend"] = "array"
        document["payload"]["parameters"]["evolving_backend"] = "array"
        results.replace_one({"key": key}, document)

        restarted = TestClient(create_app(database=database))
        assert restarted.get(f"{API}/results/{key}").status == 200
        assert result_caps(restarted, key) == caps

    def test_mine_missing_fields(self, client):
        resp = client.post(f"{API}/datasets/santander/results", json_body={})
        assert resp.status == 400

    def test_cached_results_listing(self, client):
        mine(client)
        listing = client.get(f"{API}/datasets/santander/results").json()
        assert len(listing["results"]) == 1
        entry = listing["results"][0]
        assert entry["num_caps"] > 0
        assert entry["parameters"]["min_support"] == PARAMS["min_support"]


class TestInteraction:
    def test_correlated_sensors_endpoint(self, client, dataset):
        # Pick a sensor that participates in some CAP.
        sensor = result_caps(client, mine(client).json()["key"])[0]["sensors"][0]
        resp = client.get(f"{API}/datasets/santander/sensors/{sensor}/correlated")
        assert resp.status == 200
        correlated = resp.json()["correlated"]
        assert len(correlated) >= 1
        assert sensor not in correlated

    def test_correlated_requires_mining_first(self, client, dataset):
        resp = client.get(
            f"{API}/datasets/santander/sensors/{dataset.sensor_ids[0]}/correlated"
        )
        assert resp.status == 409

    def test_correlated_unknown_sensor(self, client):
        mine(client)
        resp = client.get(f"{API}/datasets/santander/sensors/ghost/correlated")
        assert resp.status == 404


class TestVizEndpoints:
    def test_map(self, client):
        resp = client.get(f"{API}/datasets/santander/viz/map")
        assert resp.status == 200
        assert b"<svg" in resp.body

    def test_map_with_highlight(self, client, dataset):
        sid = dataset.sensor_ids[0]
        resp = client.get(f"{API}/datasets/santander/viz/map?highlight={sid}")
        assert resp.status == 200

    def test_timeseries(self, client, dataset):
        ids = ",".join(dataset.sensor_ids[:3])
        resp = client.get(f"{API}/datasets/santander/viz/timeseries?sensors={ids}")
        assert resp.status == 200
        assert b"<svg" in resp.body

    def test_timeseries_requires_sensors(self, client):
        assert client.get(f"{API}/datasets/santander/viz/timeseries").status == 400

    def test_timeseries_unknown_sensor(self, client):
        resp = client.get(f"{API}/datasets/santander/viz/timeseries?sensors=ghost")
        assert resp.status == 404

    def test_heatmap_default_sensors(self, client):
        resp = client.get(f"{API}/datasets/santander/viz/heatmap")
        assert resp.status == 200
        assert b"<svg" in resp.body

    def test_heatmap_explicit_sensors(self, client, dataset):
        ids = ",".join(dataset.sensor_ids[:3])
        resp = client.get(f"{API}/datasets/santander/viz/heatmap?sensors={ids}")
        assert resp.status == 200

    def test_heatmap_unknown_sensor(self, client):
        resp = client.get(f"{API}/datasets/santander/viz/heatmap?sensors=ghost")
        assert resp.status == 404

    def test_heatmap_uses_cached_parameters(self, client):
        mine(client)
        resp = client.get(f"{API}/datasets/santander/viz/heatmap")
        assert resp.status == 200


class TestAdminAndMisc:
    def test_index_lists_routes(self, client):
        assert client.get(API).json()["service"] == "miscela-v"
        paths = client.get(f"{API}/schema").json()["paths"]
        assert "/api/v1/datasets/{name}/results" in paths

    def test_admin_stats_shape(self, client):
        stats = client.get(f"{API}/admin/stats").json()
        assert "store" in stats and "cache" in stats

    def test_admin_results_by_dataset(self, client):
        mine(client)
        mine(client, dict(PARAMS, min_support=5))
        payload = client.get(f"{API}/admin/results-by-dataset").json()
        row = payload["results_by_dataset"]["santander"]
        assert row["settings"] == 2
        assert row["total_caps"] > 0

    def test_admin_results_by_dataset_body_is_pinned(self, client):
        """Exact body over two datasets, one holding a result with no CAPs."""
        china = generate_china6(seed=3, grid_rows=2, grid_cols=2, steps=120)
        assert client.upload_dataset(china, chunk_lines=1000).status == 201
        mine(client)
        mine(client, dict(PARAMS, min_support=5))
        empty = mine(client, dict(PARAMS, min_support=10_000), dataset="china6")
        assert empty.json()["num_caps"] == 0
        body = client.get(f"{API}/admin/results-by-dataset").body
        assert body == (
            b'{"results_by_dataset": {"china6": {"settings": 1, "total_caps": 0},'
            b' "santander": {"settings": 2, "total_caps": 100}}}'
        )

    def test_admin_results_empty(self, client):
        payload = client.get(f"{API}/admin/results-by-dataset").json()
        assert payload["results_by_dataset"] == {}

    def test_unknown_route_404(self, client):
        resp = client.get("/nope")
        assert resp.status == 404
        assert resp.json()["error"]["code"] == "not_found"

    def test_method_not_allowed(self, client):
        assert client.post(f"{API}/datasets").status == 405


class TestPersistenceAcrossRestart:
    def test_dataset_survives_restart(self, tmp_path, dataset):
        path = tmp_path / "server.json"
        app = create_app(Database(path))
        client = TestClient(app)
        assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
        mine(client)
        app.close(wait=True)

        client2 = TestClient(create_app(Database.open(path)))
        listing = client2.get(f"{API}/datasets").json()["datasets"]
        assert [entry["name"] for entry in listing] == ["santander"]
        assert mine(client2).json()["from_cache"]  # cached CAPs survived the restart
