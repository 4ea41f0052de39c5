"""Two server processes over one WAL store serve what the store holds.

Each app memoizes decoded datasets and results; a re-upload and re-mine
through the *other* app must still show up in every read: CAP pages,
result metadata and its ETag generation, and new mines of the dataset.
"""

from __future__ import annotations

from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.app import TestClient, create_app
from repro.store import Database
from tests.conftest import mine_v1, result_caps

API = "/api/v1"
PARAMS = recommended_parameters("santander").to_document()
OTHER_PARAMS = {**PARAMS, "min_support": PARAMS["min_support"] + 2}


def direct_caps(params: dict, dataset) -> list[dict]:
    miner = MiscelaMiner(MiningParameters.from_document(params))
    return [cap.to_document() for cap in miner.mine(dataset).caps]


def test_peer_reupload_and_remine_reach_every_memo(tmp_path):
    path = tmp_path / "store.json"
    a = TestClient(create_app(Database(path)))
    b = TestClient(create_app(Database(path)))
    old = generate_santander(seed=2, neighbourhoods=4, steps=240)
    new = generate_santander(seed=5, neighbourhoods=4, steps=240)

    assert a.upload_dataset(old, chunk_lines=1000).status == 201
    key = mine_v1(a, "santander", PARAMS).json()["key"]
    # Warm A's memos: the decoded result and the decoded dataset.
    assert result_caps(a, key) == direct_caps(PARAMS, old)
    assert a.get(f"{API}/datasets/santander").status == 200

    assert b.upload_dataset(new, chunk_lines=1000).status == 201
    assert mine_v1(b, "santander", PARAMS).json()["key"] == key
    expected = direct_caps(PARAMS, new)
    assert expected != direct_caps(PARAMS, old)  # the re-upload changes the CAPs

    page = a.get(f"{API}/results/{key}/caps?limit=5")
    assert page.json()["total"] == len(expected)
    assert page.json()["caps"] == expected[:5]
    assert result_caps(a, key) == expected
    meta = a.get(f"{API}/results/{key}")
    assert meta.json()["num_caps"] == len(expected)
    assert meta.headers["ETag"] == b.get(f"{API}/results/{key}").headers["ETag"]
    assert "-g2" in meta.headers["ETag"] and "-g2" in page.headers["ETag"]

    # A mine on A of parameters nobody mined yet reads the new series.
    other = mine_v1(a, "santander", OTHER_PARAMS).json()
    assert other["from_cache"] is False
    assert result_caps(a, other["key"]) == direct_caps(OTHER_PARAMS, new)


def test_dataset_listing_follows_peer_uploads_and_deletes(tmp_path):
    path = tmp_path / "store.json"
    a = TestClient(create_app(Database(path)))
    b = TestClient(create_app(Database(path)))

    def listed(client) -> list[str]:
        return [entry["name"] for entry in client.get(f"{API}/datasets").json()["datasets"]]

    assert listed(a) == []
    dataset = generate_santander(seed=2, neighbourhoods=4, steps=240)
    assert b.upload_dataset(dataset, chunk_lines=1000).status == 201
    assert listed(a) == ["santander"]
    assert b.delete(f"{API}/datasets/santander").status in (200, 204)
    assert listed(a) == []
