"""Stored result codec — the legacy CAP list against the columnar layout.

The result cache stores every mining result (Section 3.3), so a cold mine
pays for its result's stored form.  ``ResultCache.put`` used to store
``MiningResult.to_document()``: one dict per CAP, frozen and then
serialized as JSON inside the store's critical section.  It now stores the
``"encoding": 2`` columns of ``repro.core.result_columns``.  For the
Figure-2-sized result (china6, 480 steps, seed 1, ~2.8k CAPs) this records,
per layout:

* ``put`` ms, split into building the stored form from the ranked search
  output (``encode``: a fresh result each run), ``freeze`` and
  ``wal.encode_record`` (the JSON the store writes under its lock);
* stored bytes (the WAL record);
* full-decode ms of the stored document to ``CAP`` objects (every CAP of
  ``MiningResult.from_document`` for the columns; ``CAP.from_document``
  per entry for the legacy list, which only ``repro store upgrade`` still
  reads);
* store reopen ms (``Database(path)`` replaying a store holding it).

Numbers land in ``BENCH_result_codec.json``.  Run with::

    PYTHONPATH=src python -m pytest --import-mode=importlib \\
        benchmarks/bench_result_codec.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

from repro.cache.cache import ResultCache
from repro.cache.keys import cache_key, canonical_payload
from repro.core import result_columns
from repro.core.evolving import extract_all_evolving
from repro.core.miner import MiningResult
from repro.core.parallel import sharded_search
from repro.core.result_columns import result_to_columns
from repro.core.search import dedupe_strongest
from repro.core.spatial import build_proximity_graph
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
        lambda doc: list(MiningResult.from_document(doc).caps),
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


def _measure(fresh, encode, decode, store_path: Path) -> dict:
    """One layout's costs; ``fresh()`` builds the mined result anew, so
    every encode starts from the ranked search output."""
    result = fresh()
    key = cache_key(result.dataset_name, result.parameters)
    payload = canonical_payload(result.dataset_name, result.parameters)
    encode_ms, stored = _median_ms(lambda: encode(fresh()))
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
    params = recommended_parameters("china6")
    ranked = _ranked(dataset, params)
    result = _result(dataset, params, ranked)
    layouts = {
        name: _measure(lambda: _result(dataset, params, ranked), encode, decode,
                       tmp_path / f"store-{index}.json")
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

    _update_report({
        "benchmark": "bench_result_codec",
        "machine": machine_info(),
        "timed_region": "stored form of one mining result: encode (from the "
                        "ranked search output), freeze, "
                        "wal.encode_record, decode (to CAPs), store reopen",
        "dataset": {"family": "china6", "steps": 480, "seed": 1},
        "caps": len(result.caps),
        "runs": RUNS,
        "layouts": layouts,
    })


def _update_report(fields: dict) -> None:
    """Merge ``fields`` into the report, keeping what the other test filed."""
    report = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    report.update(fields)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


PAGE = 20


def _result(dataset, params, ranked) -> MiningResult:
    """The mined result of the ranked search output, as ``mine`` builds it."""
    table = getattr(result_columns, "ResultTable", None)
    if table is not None:  # pattern rows
        ranked = table.from_rows(ranked, delayed=params.max_delay > 0)
    return MiningResult(dataset.name, params, ranked)


def _page(result: MiningResult) -> list[dict]:
    """The first CAP page's documents, read as the page route reads them."""
    caps = result.caps
    if hasattr(caps, "documents"):
        return caps.documents(range(min(PAGE, len(caps))))
    return [cap.to_document() for cap in caps[:PAGE]]


def _ranked(dataset, params) -> list:
    """The ranked search output ``MiscelaMiner.mine`` builds its result from."""
    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    return dedupe_strongest(sharded_search(list(dataset), adjacency, evolving, params))


def _cold_mine_phases(dataset, params, store_path: Path) -> dict[str, float]:
    """One cold mine of ``dataset``, split into phases (ms).

    Each run starts from a collected heap; a garbage collection the run's
    allocations trigger is charged to the phase it lands in.
    """
    clock = time.perf_counter
    ms: dict[str, float] = {}
    gc.collect()
    t0 = clock()
    evolving = extract_all_evolving(dataset, params)
    adjacency = build_proximity_graph(list(dataset), params.distance_threshold)
    t1 = clock()
    raw = sharded_search(list(dataset), adjacency, evolving, params)
    t2 = clock()
    ranked = dedupe_strongest(raw)
    t3 = clock()
    columns = ResultCache.encode(_result(dataset, params, ranked))
    t4 = clock()
    ms.update(prepare=t1 - t0, tree=t2 - t1, rank=t3 - t2, pack=t4 - t3)
    with Database(store_path) as database:
        cache = ResultCache(database)
        t5 = clock()
        result = _result(dataset, params, ranked)  # a fresh one, packed again
        key = cache.put(result)
        t6 = clock()
        page = _page(cache.get(dataset.name, params))
        t7 = clock()
        ms.update(store=(t6 - t5) - ms["pack"], first_page=t7 - t6)
        peer = ResultCache(database)
        t8 = clock()
        stored_page = _page(peer.decode(peer.document(key)))
        ms["first_page_stored"] = clock() - t8
    assert page == stored_page == [cap.to_document() for cap in result.caps[:PAGE]]
    assert columns == result_to_columns(result)
    ms = {name: seconds * 1000.0 for name, seconds in ms.items()}
    ms["total"] = sum(ms[name] for name in
                      ("prepare", "tree", "rank", "pack", "store", "first_page"))
    return ms


def test_cold_mine_breakdown(tmp_path):
    label = os.environ.get("REPRO_BENCH_LABEL", "change")
    dataset = generate_china6(seed=1, steps=480)
    params = recommended_parameters("china6")
    runs = [
        _cold_mine_phases(dataset, params, tmp_path / f"cold-{run}.json")
        for run in range(RUNS + 1)
    ][1:]  # the first run warms imports and caches
    phases = {name: round(statistics.median(run[name] for run in runs), 2)
              for name in runs[0]}
    print_table(f"cold mine phases ({label}), china6 480 steps seed 1, "
                f"median of {RUNS} ms", [{"phase": k, "ms_p50": v} for k, v in phases.items()])
    report = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    cold = report.get("cold_mine", {})
    cold.update({
        "timed_region": "one cold mine of china6 (480 steps, seed 1): prepare "
                        "(evolving + graph), tree (sharded_search), rank "
                        "(dedupe_strongest), pack (result + ResultCache.encode), "
                        "store (ResultCache.put less pack), first_page (20 CAP "
                        "documents of the memoized result), first_page_stored "
                        "(the same through a second cache on the store); "
                        "median of fresh runs, ms",
        "runs": RUNS,
        label: {"machine": machine_info(), "phase_ms_p50": phases},
    })
    _update_report({"cold_mine": cold})
