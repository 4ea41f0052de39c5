"""A store holding a result in the legacy layout, once upgraded, serves
like a fresh mine.

Stored results used to hold the ``to_document()`` CAP list; the cache now
writes and reads the columnar layout only, and ``repro store upgrade``
rewrites the old one.  ``fixtures/result_document_v1.json`` is a
``cap_results`` document as the last list-writing release stored it (its
``elapsed_seconds`` fixed).  Beside a freshly written columnar result, after
the upgrade and a reopen, it must answer the same pages, CAP counts, ETags
and admin body as a store where both results were mined fresh.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cache import ResultCache
from repro.cache.keys import cache_key
from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.app import TestClient, create_app
from repro.store import Database
from repro.store.upgrade import upgrade
from tests.conftest import mine_v1, result_caps

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "result_document_v1.json"
API = "/api/v1"
PARAMS = recommended_parameters("santander").to_document()


def dataset():
    """The dataset the fixture was mined from."""
    return generate_santander(seed=2, neighbourhoods=1, steps=240)


def test_fixture_is_the_legacy_layout_of_a_direct_mine():
    legacy = json.loads(FIXTURE.read_text())
    assert "encoding" not in legacy["result"]
    params = MiningParameters.from_document(legacy["payload"]["parameters"])
    assert legacy["key"] == cache_key("santander", params)
    mined = MiscelaMiner(params).mine(dataset())
    assert legacy["result"]["caps"] == [cap.to_document() for cap in mined.caps]


def test_legacy_result_serves_beside_a_columnar_one_after_reopen(tmp_path):
    legacy = json.loads(FIXTURE.read_text())
    legacy_params = legacy["payload"]["parameters"]
    path = tmp_path / "store.json"
    writer_db = Database(path)
    writer = TestClient(create_app(database=writer_db))
    assert writer.upload_dataset(dataset(), chunk_lines=1000).status == 201
    writer_db.collection("cap_results").insert_one(legacy)
    assert mine_v1(writer, "santander", PARAMS).status == 201
    # The runtime refuses the legacy layout, naming the command that rewrites it.
    stored = Database(path).collection("cap_results").find()
    assert [document["result"].get("encoding") for document in stored] == [None, 2]
    with pytest.raises(ValueError, match="repro store upgrade --store"):
        ResultCache.metadata(stored[0])
    assert upgrade(path)["results"] == 1

    reader_db = Database(path)
    stored = reader_db.collection("cap_results").find()
    assert [document["result"].get("encoding") for document in stored] == [2, 2]
    assert [document["key"] for document in stored] == [
        legacy["key"], cache_key("santander", MiningParameters.from_document(PARAMS))
    ]
    reopened = TestClient(create_app(database=reader_db))
    fresh = TestClient(create_app())
    assert fresh.upload_dataset(dataset(), chunk_lines=1000).status == 201
    keys = []
    for params in (legacy_params, PARAMS):
        created = mine_v1(fresh, "santander", params).json()
        assert created["from_cache"] is False
        keys.append(created["key"])
    assert keys[0] == legacy["key"]

    for key, params in zip(keys, (legacy_params, PARAMS)):
        direct = MiscelaMiner(MiningParameters.from_document(params)).mine(dataset())
        expected = [cap.to_document() for cap in direct.caps]
        assert result_caps(reopened, key) == expected
        old, new = (client.get(f"{API}/results/{key}") for client in (reopened, fresh))
        assert old.json()["num_caps"] == new.json()["num_caps"] == len(expected)
        assert old.headers["ETag"] == new.headers["ETag"]
        page = f"{API}/results/{key}/caps?offset=1&limit=2"
        old, new = (client.get(page) for client in (reopened, fresh))
        assert old.body == new.body
        assert old.headers["ETag"] == new.headers["ETag"]
        cached = mine_v1(reopened, "santander", params).json()
        assert cached["from_cache"] is True and cached["num_caps"] == len(expected)

    by_dataset = [
        client.get(f"{API}/admin/results-by-dataset").body for client in (reopened, fresh)
    ]
    assert by_dataset[0] == by_dataset[1]
    assert json.loads(by_dataset[0])["results_by_dataset"]["santander"]["settings"] == 2
