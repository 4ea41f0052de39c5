"""Stored results are decoded once per stored version, by the result cache.

``ResultCache`` owns the decoded-result memo: a sync mine's cached replay,
CAP pages and map clicks share one ``MiningResult.from_document`` per
stored document (none at all after a sync mine in the same process, which
seeds the memo), and a peer's newer document is never answered from the
memo of the older one.
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


def direct_caps(dataset) -> list[dict]:
    miner = MiscelaMiner(MiningParameters.from_document(PARAMS))
    return [cap.to_document() for cap in miner.mine(dataset).caps]


def test_fig2_sequence_decodes_the_result_once(decodes):
    """Sync mine, 20 CAP pages, 4 map clicks, 4 revalidations, cached re-mine:
    the sync mine seeded the memo, so not even once."""
    client = TestClient(create_app())
    dataset = generate_santander(seed=2, neighbourhoods=4, steps=240)
    assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
    created = mine_v1(client, "santander", PARAMS)
    assert created.status == 201 and created.json()["from_cache"] is False
    key = created.json()["key"]

    pages = [client.get(f"{API}/results/{key}/caps?offset={i}&limit=5") for i in range(20)]
    assert all(page.status == 200 for page in pages)
    sensors = [sid for cap in pages[0].json()["caps"] for sid in cap["sensors"]]
    assert len(sensors) >= 4
    for sensor in sensors[:4]:
        click = client.get(f"{API}/datasets/santander/sensors/{sensor}/correlated")
        assert click.status == 200 and click.json()["correlated"]
    meta = client.get(f"{API}/results/{key}")
    for url, etag in [
        (f"{API}/results/{key}", meta.headers["ETag"]),
        (f"{API}/results/{key}/caps?offset=0&limit=5", pages[0].headers["ETag"]),
    ] * 2:
        assert client.get(url, headers={"If-None-Match": etag}).status == 304
    cached = mine_v1(client, "santander", PARAMS)
    assert cached.json()["from_cache"] is True

    assert decodes == []


def test_first_page_after_a_sync_mine_decodes_nothing(decodes):
    """The seeded page answers the bytes a decoded page answers."""
    app = create_app()
    client = TestClient(app)
    dataset = generate_santander(seed=2, neighbourhoods=4, steps=240)
    assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
    key = mine_v1(client, "santander", PARAMS).json()["key"]
    url = f"{API}/results/{key}/caps?offset=0&limit=1000"
    seeded = client.get(url)
    assert seeded.status == 200 and decodes == []
    app.state.cache._memo.clear()
    decoded = client.get(url)
    assert decodes == ["santander"]
    assert seeded.body == decoded.body
    assert seeded.headers["ETag"] == decoded.headers["ETag"]


def test_two_apps_answer_the_peers_newer_result(decodes):
    """App B decoded the old result; after app A re-uploads and re-mines,
    B's cached re-mine and its pages answer A's new result."""
    database = Database()
    a = TestClient(create_app(database=database))
    b = TestClient(create_app(database=database))
    old = generate_santander(seed=2, neighbourhoods=4, steps=240)
    new = generate_santander(seed=5, neighbourhoods=4, steps=240)
    expected = direct_caps(new)
    assert expected != direct_caps(old)

    assert a.upload_dataset(old, chunk_lines=1000).status == 201
    key = mine_v1(a, "santander", PARAMS).json()["key"]
    warm = mine_v1(b, "santander", PARAMS).json()
    assert warm["from_cache"] is True
    assert result_caps(b, key) == direct_caps(old)

    assert a.upload_dataset(new, chunk_lines=1000).status == 201
    remined = mine_v1(a, "santander", PARAMS).json()
    assert remined["from_cache"] is False and remined["key"] == key

    again = mine_v1(b, "santander", PARAMS).json()
    assert again["from_cache"] is True
    assert again["num_caps"] == len(expected)
    assert result_caps(b, key) == expected
    assert b.get(f"{API}/results/{key}").json()["num_caps"] == len(expected)
