"""Stored result codec — the legacy CAP list against the columnar layout.

The result cache stores every mining result (Section 3.3), so a cold mine
pays for its result's stored form.  ``ResultCache.put`` used to store
``MiningResult.to_document()``: one dict per CAP, frozen and then
serialized as JSON inside the store's critical section.  It now stores the
``"encoding": 2`` columns of ``repro.core.result_columns``.  For the
Figure-2-sized result (china6, 480 steps, seed 1, ~2.8k CAPs) this records,
per layout:

* ``put`` ms, split into building the stored form (``encode``), ``freeze``
  and ``wal.encode_record`` (the JSON the store writes under its lock);
* stored bytes (the WAL record);
* full-decode ms of the stored document (``MiningResult.from_document``
  for the columns; ``CAP.from_document`` per entry for the legacy list,
  which only ``repro store upgrade`` still reads);
* store reopen ms (``Database(path)`` replaying a store holding it).

Numbers land in ``BENCH_result_codec.json``.  Run with::

    PYTHONPATH=src python -m pytest --import-mode=importlib \\
        benchmarks/bench_result_codec.py -q -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.cache.keys import cache_key, canonical_payload
from repro.core.miner import MiningResult, MiscelaMiner
from repro.core.result_columns import result_to_columns
from repro.core.types import CAP
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_china6
from repro.store import wal
from repro.store.database import Database
from repro.store.frozen import freeze

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_result_codec.json"

RUNS = 7
#: Per layout: (encode a result, decode its stored form to CAPs).
LAYOUTS = {
    "legacy (to_document CAP list)": (
        MiningResult.to_document,
        lambda doc: [CAP.from_document(cap) for cap in doc["caps"]],
    ),
    "encoding 2 (columns)": (
        result_to_columns,
        lambda doc: MiningResult.from_document(doc).caps,
    ),
}


def _median_ms(run) -> tuple[float, object]:
    """Median wall time of ``RUNS`` calls, and the last call's value."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        value = run()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times), value


def _measure(result: MiningResult, encode, decode, store_path: Path) -> dict:
    key = cache_key(result.dataset_name, result.parameters)
    payload = canonical_payload(result.dataset_name, result.parameters)
    encode_ms, stored = _median_ms(lambda: encode(result))
    document = {"key": key, "payload": payload, "result": stored}
    freeze_ms, frozen = _median_ms(lambda: freeze(document))
    record_ms, record = _median_ms(lambda: wal.encode_record({"op": "put", "doc": frozen}))

    Database(store_path)["cap_results"].insert_one(frozen)
    reopen_ms, reopened = _median_ms(lambda: Database(store_path))
    read_back = reopened["cap_results"].find_one({"key": key})
    decode_ms, decoded = _median_ms(lambda: decode(read_back["result"]))
    assert [cap.to_document() for cap in decoded] == [
        cap.to_document() for cap in result.caps
    ]
    return {
        "put_ms": encode_ms + freeze_ms + record_ms,
        "encode_ms": encode_ms,
        "freeze_ms": freeze_ms,
        "encode_record_ms": record_ms,
        "stored_bytes": len(record),
        "decode_ms": decode_ms,
        "reopen_ms": reopen_ms,
    }


def test_result_codec_legacy_vs_columns(tmp_path):
    dataset = generate_china6(seed=1, steps=480)
    result = MiscelaMiner(recommended_parameters("china6")).mine(dataset)
    layouts = {
        name: _measure(result, encode, decode, tmp_path / f"store-{index}.json")
        for index, (name, (encode, decode)) in enumerate(LAYOUTS.items())
    }
    print_table(
        f"stored result codec, china6 480 steps seed 1, {len(result.caps)} CAPs "
        f"(median of {RUNS})",
        [{"layout": name, **{k: round(v, 2) for k, v in row.items()}}
         for name, row in layouts.items()],
    )
    legacy, columns = layouts.values()
    # The columnar layout must be smaller and cheaper to store than the list.
    assert columns["stored_bytes"] < legacy["stored_bytes"]
    assert columns["put_ms"] < legacy["put_ms"]

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_result_codec",
        "machine": machine_info(),
        "timed_region": "stored form of one mining result: encode, freeze, "
                        "wal.encode_record, decode, store reopen",
        "dataset": {"family": "china6", "steps": 480, "seed": 1},
        "caps": len(result.caps),
        "runs": RUNS,
        "layouts": layouts,
    }, indent=2) + "\n")
