"""Step-by-step mine ledger for the step-3/4 bitmap kernels.

Times the three mining steps the bitmaps feed — evolving extraction
(step 2), the η-graph (step 3) and the CAP search (step 4, which builds
each sensor's bitmaps on first use) — on four runs at perfbench sizes:

* ``china6`` — ``generate_china6(seed=1, steps=480)``, recommended params;
* ``sweep-china6`` — sweep's one-row china6 (``grid_rows=1``) mined at
  all twelve ψ × η grid points, times summed per pass;
* ``santander`` — ``generate_santander(seed=1, steps=2016)``;
* ``china6-delay2`` — the china6 run with ``max_delay=2``.

Each figure is the median of ``LEDGER_RUNS`` passes.  The record goes to
``BENCH_bitmap_kernels.json`` with ``machine_info()`` under a label
(``REPRO_BENCH_LABEL``, default ``change``); other labels already in the
file are kept, so running it once against an older checkout's ``src``
records the before numbers beside the after ones.  Every label must mine
the same CAPs: the SHA-256 of each run's CAP documents is compared across
labels::

    REPRO_BENCH_LABEL=parent PYTHONPATH=<old checkout>/src \\
        python -m pytest --import-mode=importlib \\
        benchmarks/bench_bitmap_kernels.py -q -s

Step 4 is ``search_all`` in every mode.  Checkouts from before the delayed
search was folded into it mined δ > 0 through ``search_delayed`` instead;
record those with that checkout's own copy of this bench.  ``search_all``
returns ranked pattern rows (decoded ``CAP`` objects in older checkouts,
whose ``search_ms`` therefore includes the decode); the CAP documents
hashed for the cross-label check are built outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path

from repro.core import result_columns
from repro.core.evolving import extract_all_evolving
from repro.core.search import search_all
from repro.core.spatial import build_proximity_graph
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_china6, generate_santander

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_bitmap_kernels.json"
LEDGER_RUNS = 7


def _sweep_grid():
    base = recommended_parameters("china6")
    return [
        base.with_updates(
            min_support=support, distance_threshold=base.distance_threshold * factor
        )
        for support in (8, 10, 12, 14)
        for factor in (0.9, 1.0, 1.1)
    ]


def _cases():
    china6 = generate_china6(seed=1, steps=480)
    china6_params = recommended_parameters("china6")
    return {
        "china6": (china6, [china6_params]),
        "sweep-china6": (generate_china6(seed=1, steps=480, grid_rows=1), _sweep_grid()),
        "santander": (
            generate_santander(seed=1, steps=2016),
            [recommended_parameters("santander")],
        ),
        "china6-delay2": (china6, [china6_params.with_updates(max_delay=2)]),
    }


def _mine_steps(dataset, params) -> tuple[dict[str, float], list]:
    """One mine, step by step: per-step seconds and the CAPs."""
    sensors = list(dataset)
    t0 = time.perf_counter()
    evolving = extract_all_evolving(dataset, params)
    t1 = time.perf_counter()
    adjacency = build_proximity_graph(sensors, params.distance_threshold)
    t2 = time.perf_counter()
    caps = search_all(sensors, adjacency, evolving, params)
    t3 = time.perf_counter()
    return {"evolving": t1 - t0, "graph": t2 - t1, "search": t3 - t2}, caps


def _documents(found, params) -> list[dict]:
    """CAP documents of ``search_all``'s output, rows or (older) CAPs."""
    table = getattr(result_columns, "ResultTable", None)
    if table is not None:
        return table.from_rows(found, delayed=params.max_delay > 0).documents()
    return [cap.to_document() for cap in found]


def _ledger_row(dataset, grid) -> dict:
    passes = []
    documents = []
    for run in range(LEDGER_RUNS):
        totals = {"evolving": 0.0, "graph": 0.0, "search": 0.0}
        for params in grid:
            seconds, caps = _mine_steps(dataset, params)
            for step, value in seconds.items():
                totals[step] += value
            if run == 0:
                documents.append(_documents(caps, params))
        passes.append(totals)
    row = {
        f"{step}_ms": round(1000 * statistics.median(p[step] for p in passes), 2)
        for step in ("evolving", "graph", "search")
    }
    row["caps"] = sum(len(docs) for docs in documents)
    row["caps_sha256"] = hashlib.sha256(
        json.dumps(documents, sort_keys=True).encode()
    ).hexdigest()
    return row


def test_bitmap_kernel_ledger():
    label = os.environ.get("REPRO_BENCH_LABEL", "change")
    ledger = {name: _ledger_row(*case) for name, case in _cases().items()}
    report = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    report.update({
        "benchmark": "bench_bitmap_kernels.bitmap_kernel_ledger",
        "timed_region": "extract_all_evolving (evolving_ms), build_proximity_graph "
                        "(graph_ms), search_all including the "
                        "lazy bitmap build (search_ms); summed over the run's "
                        f"parameter grid, median of {LEDGER_RUNS} passes",
        "runs": {
            "china6": "generate_china6(seed=1, steps=480), recommended parameters",
            "sweep-china6": "generate_china6(seed=1, steps=480, grid_rows=1), "
                            "min_support (8, 10, 12, 14) x distance_threshold "
                            "(0.9, 1.0, 1.1) x recommended",
            "santander": "generate_santander(seed=1, steps=2016), recommended parameters",
            "china6-delay2": "the china6 run with max_delay=2",
        },
    })
    report[label] = {"machine": machine_info(), **ledger}
    print_table(f"bitmap kernel ledger ({label})", [
        {"run": name, **{k: v for k, v in row.items() if k != "caps_sha256"}}
        for name, row in ledger.items()
    ])
    # Every recorded label mined the same CAPs, byte for byte.
    for other in report.values():
        if isinstance(other, dict) and "machine" in other:
            for name, row in ledger.items():
                assert other[name]["caps"] == row["caps"]
                assert other[name]["caps_sha256"] == row["caps_sha256"]
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
