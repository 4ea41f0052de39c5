"""API v1 serving economics: paginated CAP pages and conditional GETs.

ISSUE 4 redesigned the HTTP surface around result resources; this bench
quantifies the two serving-tier wins over shipping whole results:

* **page vs full payload** — the pre-v1 RPC surface replayed the *entire*
  CAP list on every cache hit; v1 clients fetch
  ``GET /api/v1/results/{key}/caps?offset=&limit=`` pages.  Measured: p50
  latency and body size of one page against the full CAP list (every page
  at the maximum limit), plus the byte-identity of all pages concatenated
  with a direct mine (the acceptance criterion).
* **304 hit rate** — result metadata carries an ``ETag`` (cache key +
  dataset generation); a well-behaved client revalidates with
  ``If-None-Match`` and pays a header-only 304 instead of a body.
  Measured: the revalidation hit rate (must be 100% for an unchanged
  dataset) and the 304 latency against an unconditional GET.

Results land in ``BENCH_api_v1.json`` at the repository root (CI's bench
lane uploads it).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core.miner import MiscelaMiner
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.api_v1 import MAX_PAGE_LIMIT
from repro.server.app import TestClient, create_app

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_api_v1.json"

PAGE_LIMIT = 20
SAMPLES = 40


def _timed_ms(fn) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return (time.perf_counter() - start) * 1000.0, value


def _p50(samples: list[float]) -> float:
    return statistics.median(samples)


def test_api_v1_pages_and_conditional_gets():
    dataset = generate_santander(seed=3, neighbourhoods=10, steps=360)
    params = recommended_parameters("santander").with_updates(min_support=5)
    app = create_app(job_workers=1)
    client = TestClient(app)
    try:
        assert client.upload_dataset(dataset).status == 201

        created = client.post(
            f"/api/v1/datasets/{dataset.name}/results",
            json_body={"parameters": params.to_document()},
        )
        assert created.status == 201, created.json()
        key = created.json()["key"]
        num_caps = created.json()["num_caps"]
        assert num_caps > PAGE_LIMIT, (
            f"bench needs more than one page, got {num_caps} CAPs"
        )

        # -- the full CAP list vs one v1 page -----------------------------------
        def full_list() -> int:
            total = 0
            for offset in range(0, num_caps, MAX_PAGE_LIMIT):
                response = client.get(
                    f"/api/v1/results/{key}/caps?offset={offset}&limit={MAX_PAGE_LIMIT}"
                )
                assert response.status == 200
                total += len(response.body)
            return total

        full_ms: list[float] = []
        for _ in range(SAMPLES):
            elapsed, full_bytes = _timed_ms(full_list)
            full_ms.append(elapsed)

        page_url = f"/api/v1/results/{key}/caps?offset=0&limit={PAGE_LIMIT}"
        page_ms: list[float] = []
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(lambda: client.get(page_url))
            assert response.status == 200
            page_ms.append(elapsed)
        page_bytes = len(response.body)

        # -- acceptance criterion: pages concatenate to the mined CAP list --
        mined_caps = [cap.to_document() for cap in MiscelaMiner(params).mine(dataset).caps]
        paged: list[dict] = []
        offset = 0
        while offset < num_caps:
            body = client.get(
                f"/api/v1/results/{key}/caps?offset={offset}&limit={PAGE_LIMIT}"
            ).json()
            paged.extend(body["caps"])
            offset += PAGE_LIMIT
        assert json.dumps(paged, sort_keys=True) == json.dumps(
            mined_caps, sort_keys=True
        ), "concatenated v1 pages must be byte-identical to the mined CAP list"

        # -- conditional GETs: ETag revalidation --------------------------------
        meta_url = f"/api/v1/results/{key}"
        uncond_ms: list[float] = []
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(lambda: client.get(meta_url))
            assert response.status == 200
            uncond_ms.append(elapsed)
        etag = response.headers["ETag"]

        cond_ms: list[float] = []
        not_modified = 0
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(
                lambda: client.get(meta_url, headers={"If-None-Match": etag})
            )
            cond_ms.append(elapsed)
            if response.status == 304:
                not_modified += 1
                assert response.body == b""
        hit_rate = not_modified / SAMPLES

        rows = [
            {"metric": f"full CAP list p50 (limit={MAX_PAGE_LIMIT} pages)",
             "ms": round(_p50(full_ms), 3), "bytes": full_bytes},
            {"metric": f"GET caps page p50 (limit={PAGE_LIMIT})",
             "ms": round(_p50(page_ms), 3), "bytes": page_bytes},
            {"metric": "GET result metadata p50",
             "ms": round(_p50(uncond_ms), 3), "bytes": len(client.get(meta_url).body)},
            {"metric": "conditional GET p50 (If-None-Match)",
             "ms": round(_p50(cond_ms), 3), "bytes": 0},
            {"metric": "304 hit rate", "ms": "", "bytes": f"{hit_rate:.0%}"},
        ]
        print_table(
            f"API v1 page vs full CAP list ({num_caps} CAPs)", rows
        )

        REPORT_PATH.write_text(json.dumps({
            "benchmark": "bench_api_v1",
            "machine": machine_info(),
            "timed_region": "in-process API request latencies (cache-hot)",
            "num_caps": num_caps,
            "page_limit": PAGE_LIMIT,
            "samples": SAMPLES,
            "full_payload_p50_ms": _p50(full_ms),
            "full_payload_bytes": full_bytes,
            "page_p50_ms": _p50(page_ms),
            "page_bytes": page_bytes,
            "metadata_p50_ms": _p50(uncond_ms),
            "conditional_p50_ms": _p50(cond_ms),
            "not_modified_hit_rate": hit_rate,
            "payload_reduction": full_bytes / page_bytes,
        }, indent=2) + "\n")

        # The redesign's claims: every repeated conditional GET revalidates,
        # and a page is strictly cheaper than the full CAP list.
        assert hit_rate == 1.0, "ETag revalidation must hit for unchanged data"
        assert page_bytes < full_bytes, "a page must be smaller than the full payload"
        assert _p50(page_ms) < _p50(full_ms), (
            "serving one page must beat re-serializing the full payload"
        )
    finally:
        app.close()
