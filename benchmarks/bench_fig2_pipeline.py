"""Figure 2 — the system pipeline: upload → parameters → results.

Times the full interactive loop through the API server (the WSGI app backed
by the document store and result cache): chunked upload of data.csv,
a mining request, result retrieval, and a repeated request that must be
served from cache.
"""

from __future__ import annotations

from repro.server.app import TestClient, create_app

from .conftest import print_table


def run_pipeline(dataset, params_doc) -> dict:
    """One full Figure-2 cycle; returns observability counters."""
    client = TestClient(create_app())
    upload = client.upload_dataset(dataset, chunk_lines=10_000)
    assert upload.status == 201, upload.json()
    results = f"/api/v1/datasets/{dataset.name}/results"
    first = client.post(results, json_body={"parameters": params_doc})
    assert first.status == 201
    listing = client.get(results)
    assert listing.status == 200
    second = client.post(results, json_body={"parameters": params_doc})
    assert second.status == 201
    stats = client.get("/api/v1/admin/stats").json()
    return {
        "num_caps": first.json()["num_caps"],
        "first_from_cache": first.json()["from_cache"],
        "second_from_cache": second.json()["from_cache"],
        "cache_hits": stats["cache"]["hits"],
        "store_collections": stats["store"]["collections"],
    }


def test_fig2_upload_mine_view_cycle(benchmark, santander, santander_params):
    params_doc = santander_params.to_document()

    outcome = benchmark(run_pipeline, santander, params_doc)

    print_table(
        "Fig. 2 — pipeline cycle (upload → mine → view → re-mine)",
        [
            {
                "stage": "mine #1",
                "from_cache": outcome["first_from_cache"],
                "caps": outcome["num_caps"],
            },
            {
                "stage": "mine #2",
                "from_cache": outcome["second_from_cache"],
                "caps": outcome["num_caps"],
            },
        ],
    )
    # Shape: the first request computes, the second replays from cache, and
    # both dataset + results live in the store (Figure 2's two DB arrows).
    assert not outcome["first_from_cache"]
    assert outcome["second_from_cache"]
    assert outcome["num_caps"] > 0
    assert outcome["store_collections"]["datasets"] == 1
    assert outcome["store_collections"]["cap_results"] == 1
