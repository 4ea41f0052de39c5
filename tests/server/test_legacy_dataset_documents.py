"""A store written in the legacy dataset layout, once upgraded, serves like
a fresh upload.

Dataset documents used to hold one JSON float or ``null`` per reading and
one ISO string per timestamp.  The server now writes and reads the binary
layout only, and ``repro store upgrade`` rewrites the old one: after it,
the store's dataset reads and mines answer byte for byte what a fresh
upload of the same dataset answers.
"""

from __future__ import annotations

import json

from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.app import TestClient, create_app
from repro.store import Database
from repro.store.upgrade import upgrade
from tests.conftest import legacy_dataset_document, mine_v1

API = "/api/v1"
PARAMS = recommended_parameters("santander").to_document()


def test_legacy_store_reads_and_mines_like_a_fresh_upload(tmp_path):
    dataset = generate_santander(seed=2, neighbourhoods=4, steps=240)
    path = tmp_path / "store.json"
    Database(path).collection("datasets").insert_one(
        {"name": dataset.name, "dataset": legacy_dataset_document(dataset)}
    )
    assert upgrade(path)["datasets"] == 1

    legacy = TestClient(create_app(Database(path)))
    fresh = TestClient(create_app())
    assert fresh.upload_dataset(dataset, chunk_lines=1000).status == 201

    for url in (f"{API}/datasets", f"{API}/datasets/{dataset.name}"):
        old, new = legacy.get(url), fresh.get(url)
        assert old.status == new.status == 200
        assert old.body == new.body

    old, new = mine_v1(legacy, dataset.name, PARAMS), mine_v1(fresh, dataset.name, PARAMS)
    assert old.status == new.status == 201
    assert _untimed(old) == _untimed(new)
    key = new.json()["key"]
    pages = [client.get(f"{API}/results/{key}/caps?limit=1000") for client in (legacy, fresh)]
    assert pages[0].json()["total"] > 0
    assert pages[0].body == pages[1].body


def _untimed(response) -> bytes:
    """A mine's body without its wall-clock ``elapsed_seconds``."""
    body = response.json()
    del body["elapsed_seconds"]
    return json.dumps(body, sort_keys=True).encode()
