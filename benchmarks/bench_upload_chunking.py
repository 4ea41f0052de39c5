"""Section 3.2 — scalable chunked upload.

"For scalably uploading large datasets, we divide the file into 10,000
lines and send each divided set to our system."  This bench pushes a
data.csv of growing size through the full three-step upload protocol and
checks that (a) the chunk count is ceil(rows / 10,000) and (b) per-row cost
stays flat as the dataset grows (linear scaling).

The parse/finish ledger times the server side alone — ``add_chunk`` over
every chunk, then ``finish`` — on the perfbench upload sizes (santander
``steps=2016``, china6 ``steps=480``), then the stored dataset document:
``encode_ms`` (``dataset_to_document`` plus ``json.dumps`` of the WAL put
record), ``decode_ms`` (``json.loads`` plus ``dataset_from_document``) and
``doc_bytes`` (the record's size).  It writes ``BENCH_upload_parse.json``
with ``machine_info()`` and a SHA-256 of each assembled dataset, hashed in
the legacy document layout (:func:`_legacy_document`) so that hashes
recorded before the binary layout stay comparable.
Results are filed under a label (``REPRO_BENCH_LABEL``, default
``change``); other labels already in the file are kept, so running the
bench once against an older checkout's ``src`` with
``REPRO_BENCH_LABEL=parent`` records the before numbers beside the after
ones, and the documents' hashes must then agree::

    REPRO_BENCH_LABEL=parent PYTHONPATH=<old checkout>/src \
        python -m pytest --import-mode=importlib \
        benchmarks/bench_upload_chunking.py -k ledger -q -s
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.data.csv_io import ChunkAssembler, dataset_to_rows, iter_chunks
from repro.data.documents import dataset_from_document, dataset_to_document
from repro.data.synthetic import generate_china6, generate_santander
from repro.server.app import TestClient, create_app

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_upload_parse.json"
LEDGER_DATASETS = (("santander", generate_santander, 2016), ("china6", generate_china6, 480))
LEDGER_RUNS = 5


def upload(dataset, chunk_lines=10_000):
    client = TestClient(create_app())
    response = client.upload_dataset(dataset, chunk_lines=chunk_lines)
    assert response.status == 201, response.json()
    return client


@pytest.mark.parametrize("steps", [120, 480])
def test_chunked_upload(benchmark, steps):
    dataset = generate_santander(seed=11, neighbourhoods=6, steps=steps)
    benchmark(upload, dataset)


def test_chunk_count_and_linear_scaling(benchmark):
    small = generate_santander(seed=11, neighbourhoods=6, steps=120)
    large = generate_santander(seed=11, neighbourhoods=6, steps=600)

    benchmark(upload, small)

    rows_small, _ = dataset_to_rows(small)
    rows_large, _ = dataset_to_rows(large)
    chunks_small = list(iter_chunks(rows_small, 10_000))
    chunks_large = list(iter_chunks(rows_large, 10_000))
    assert len(chunks_small) == math.ceil(len(rows_small) / 10_000)
    assert len(chunks_large) == math.ceil(len(rows_large) / 10_000)

    t0 = time.perf_counter()
    upload(small)
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    upload(large)
    t_large = time.perf_counter() - t0

    per_row_small = t_small / len(rows_small)
    per_row_large = t_large / len(rows_large)
    print_table(
        "§3.2 — chunked upload scaling (10,000-line chunks)",
        [
            {
                "rows": len(rows_small),
                "chunks": len(chunks_small),
                "seconds": f"{t_small:.3f}",
                "µs_per_row": f"{per_row_small * 1e6:.1f}",
            },
            {
                "rows": len(rows_large),
                "chunks": len(chunks_large),
                "seconds": f"{t_large:.3f}",
                "µs_per_row": f"{per_row_large * 1e6:.1f}",
            },
        ],
    )
    # Linear shape: per-row cost within 4x across a 5x size change (slack
    # for fixed setup costs and timer noise).
    assert per_row_large < per_row_small * 4


def _legacy_document(dataset) -> dict:
    """The dataset in the legacy document layout: JSON floats, ``null``, ISO times."""
    return {
        "name": dataset.name,
        "timeline": [t.isoformat() for t in dataset.timeline],
        "attributes": list(dataset.attributes),
        "sensors": [
            {"id": s.sensor_id, "attribute": s.attribute, "lat": s.lat, "lon": s.lon}
            for s in dataset
        ],
        "series": {
            s.sensor_id: [None if math.isnan(v) else float(v) for v in dataset.values(s.sensor_id)]
            for s in dataset
        },
    }


def _encode_decode(dataset) -> tuple[float, float, int]:
    """One dataset document write and read, as ``ServerState`` and the WAL do them."""
    start = time.perf_counter()
    record = {"op": "put", "doc": {
        "name": dataset.name, "dataset": dataset_to_document(dataset), "_id": 1,
    }}
    payload = json.dumps(record, separators=(",", ":"))
    encoded = time.perf_counter()
    restored = dataset_from_document(json.loads(payload)["doc"]["dataset"])
    decoded = time.perf_counter()
    assert restored.sensor_ids == dataset.sensor_ids
    return (encoded - start) * 1000.0, (decoded - encoded) * 1000.0, len(payload.encode())


def _parse_and_finish(dataset) -> dict:
    """Median parse, finish and document encode/decode wall times."""
    data_rows, locations = dataset_to_rows(dataset)
    chunks = list(iter_chunks(data_rows))
    parse_ms, finish_ms, encode_ms, decode_ms = [], [], [], []
    for _ in range(LEDGER_RUNS):
        assembler = ChunkAssembler(dataset.name)
        start = time.perf_counter()
        rows = sum(assembler.add_chunk(chunk) for chunk in chunks)
        parsed = time.perf_counter()
        rebuilt = assembler.finish(locations, list(dataset.attributes))
        finished = time.perf_counter()
        parse_ms.append((parsed - start) * 1000.0)
        finish_ms.append((finished - parsed) * 1000.0)
        encode, decode, doc_bytes = _encode_decode(rebuilt)
        encode_ms.append(encode)
        decode_ms.append(decode)
    assert rows == len(data_rows)
    document = dataset_to_document(rebuilt)
    assert document == dataset_to_document(dataset)  # lossless round trip
    return {
        "rows": rows,
        "chunks": len(chunks),
        "parse_ms": round(statistics.median(parse_ms), 1),
        "finish_ms": round(statistics.median(finish_ms), 1),
        "encode_ms": round(statistics.median(encode_ms), 1),
        "decode_ms": round(statistics.median(decode_ms), 1),
        "doc_bytes": doc_bytes,
        "document_sha256": hashlib.sha256(
            json.dumps(_legacy_document(rebuilt), sort_keys=True).encode()
        ).hexdigest(),
    }


def test_parse_finish_ledger():
    label = os.environ.get("REPRO_BENCH_LABEL", "change")
    ledger = {
        name: _parse_and_finish(generate(seed=1, steps=steps))
        for name, generate, steps in LEDGER_DATASETS
    }
    report = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    report.update({
        "benchmark": "bench_upload_chunking.parse_finish_ledger",
        "timed_region": "ChunkAssembler.add_chunk over every 10,000-line chunk, "
                        "then finish; encode_ms: dataset_to_document + json.dumps of "
                        "the WAL put record; decode_ms: json.loads + "
                        f"dataset_from_document; median of {LEDGER_RUNS} runs",
        "datasets": {name: f"seed=1, steps={steps}" for name, _g, steps in LEDGER_DATASETS},
    })
    report[label] = {"machine": machine_info(), **ledger}
    print_table(f"upload parse/finish ledger ({label})", [
        {"dataset": name, **{k: v for k, v in row.items() if k != "document_sha256"}}
        for name, row in ledger.items()
    ])
    # Every recorded label assembled the same datasets, byte for byte.
    for other in report.values():
        if isinstance(other, dict) and "machine" in other:
            for name, row in ledger.items():
                assert other[name]["document_sha256"] == row["document_sha256"]
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
