"""Extension bench — incremental vs. from-scratch re-mining on appends.

The streaming extension (see DESIGN.md "future-work features") maintains
evolving sets across appends so interactive re-mining after new data
arrives skips extraction and graph construction.  This bench appends one
day of data to a primed stream and compares re-mining paths:

* batch     — rebuild the dataset and run the full four-step miner;
* streaming — extend() the maintained state, then search only.

Identical results are asserted; streaming should win since steps 2–3 are
amortised.

``test_stream_epoch_ledger`` times the resident miner's epoch step
(``StreamSession.process_epoch``) on a WAL store, on the perfbench
stream-santander shape (seed 2, 12 neighbourhoods, a 240-step prefix,
6-step batches, the same two-level alert rule).  Per epoch it records the
median ms of each phase — ``extend`` and ``mine`` (the miner),
``diff`` (``diff_caps`` + ``build_events``), ``checkpoint``
(``export_state``) and ``commit`` (the epoch's exclusive section; where
``export_state`` runs inside it, ``commit`` includes it) — and the
journal bytes each collection's ops take per epoch, observation appends
included.  It writes ``BENCH_stream_epoch.json`` under a label
(``REPRO_BENCH_LABEL``, default ``change``); run it once against an older
checkout to record its numbers beside these::

    REPRO_BENCH_LABEL=parent PYTHONPATH=<old checkout>/src \
        python -m pytest --import-mode=importlib \
        benchmarks/bench_streaming.py -q -s -k ledger
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.cache.keys import cache_key
from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.core.streaming import StreamingMiner
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.store import wal
from repro.store.database import Database
from repro.stream import ALERT_RULES, StreamSession, append_batch, runner, validate_rule

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_stream_epoch.json"

PARAMS = MiningParameters(
    evolving_rate=3.0, distance_threshold=0.35, max_attributes=3, min_support=5
)


def _split(steps_total=400, cut=376):
    full = generate_santander(seed=11, neighbourhoods=6, steps=steps_total)
    prefix = full.slice_time(full.timeline[0], full.timeline[cut], name=full.name)
    tail_t = list(full.timeline[cut:])
    tail_v = {sid: full.values(sid)[cut:] for sid in full.sensor_ids}
    return full, prefix, tail_t, tail_v


def test_batch_remine_after_append(benchmark):
    full, _, _, _ = _split()

    def batch_path():
        return MiscelaMiner(PARAMS).mine(full)

    result = benchmark(batch_path)
    assert result.num_caps > 0


def test_streaming_remine_after_append(benchmark):
    full, prefix, tail_t, tail_v = _split()

    def streaming_path():
        miner = StreamingMiner(PARAMS, prefix)
        miner.extend(tail_t, tail_v)
        return miner.mine()

    # Note: construction (the one-time priming) is inside the timed region
    # here, making this an *upper* bound on the steady-state append cost.
    result = benchmark(streaming_path)
    assert result.num_caps > 0


def test_streaming_equals_batch(benchmark):
    full, prefix, tail_t, tail_v = _split()
    miner = StreamingMiner(PARAMS, prefix)
    miner.extend(tail_t, tail_v)

    streaming_result = benchmark(miner.mine)

    batch_result = MiscelaMiner(PARAMS).mine(full)
    streaming_sig = {(c.key(), c.support) for c in streaming_result.caps}
    batch_sig = {(c.key(), c.support) for c in batch_result.caps}
    print_table(
        "extension — streaming vs batch re-mining (24-step append)",
        [
            {"path": "batch (4 steps)", "caps": len(batch_sig)},
            {"path": "streaming (search only)", "caps": len(streaming_sig)},
        ],
    )
    assert streaming_sig == batch_sig


LEDGER_EPOCHS = 60
LEDGER_PREFIX = 240
LEDGER_BATCH = 6
LEDGER_RULE = {"rule_id": "co-move", "event_types": ["new", "extended"],
               "levels": [{"min_sensors": 2, "severity": "warning"},
                          {"min_sensors": 3, "severity": "critical"}]}
PHASES = ("extend", "mine", "diff", "checkpoint", "commit")


def _batches(full):
    for epoch in range(LEDGER_EPOCHS):
        lo = LEDGER_PREFIX + epoch * LEDGER_BATCH
        hi = lo + LEDGER_BATCH
        yield {
            "timeline": [t.isoformat() for t in full.timeline[lo:hi]],
            "series": {
                sid: [None if math.isnan(v) else float(v) for v in full.values(sid)[lo:hi]]
                for sid in full.sensor_ids
            },
        }


def _epoch_ledger(store_path: Path) -> dict:
    """Per-phase epoch ms (median over epochs) and journal bytes per epoch."""
    params = recommended_parameters("santander")
    full = generate_santander(
        seed=2, neighbourhoods=12, steps=LEDGER_PREFIX + LEDGER_EPOCHS * LEDGER_BATCH
    )
    prefix = full.slice_time(full.timeline[0], full.timeline[LEDGER_PREFIX], name=full.name)
    database = Database(store_path)
    database.collection(ALERT_RULES).insert_one(validate_rule(prefix.name, LEDGER_RULE))
    session = StreamSession(database, prefix, params, cache_key(prefix.name, params))

    spent: Counter = Counter()
    journal: Counter = Counter()

    def timed(phase, call):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - started
        return wrapper

    section = database.exclusive

    @contextmanager
    def commit():
        started = time.perf_counter()
        with section():
            yield
        spent["commit"] += time.perf_counter() - started

    log_append = database._log.append

    def counted_append(record):
        for name, ops in record.items():
            journal[name] += len(wal.encode_record({name: ops}))
        return log_append(record)

    miner = session.miner
    miner.extend = timed("extend", miner.extend)
    miner.mine = timed("mine", miner.mine)
    miner.export_state = timed("checkpoint", miner.export_state)
    originals = {name: getattr(runner, name) for name in ("diff_caps", "build_events")}
    phase_ms: dict[str, list[float]] = defaultdict(list)
    database._log.append = counted_append
    try:
        for name, call in originals.items():
            setattr(runner, name, timed("diff", call))
        for epoch, batch in enumerate(_batches(full), start=1):
            append_batch(database, prefix, batch)
            spent.clear()
            database.exclusive = commit
            started = time.perf_counter()
            session.process_epoch(epoch)
            total = time.perf_counter() - started
            database.exclusive = section
            phase_ms["total"].append(total * 1000.0)
            for phase in PHASES:
                phase_ms[phase].append(spent[phase] * 1000.0)
    finally:
        for name, call in originals.items():
            setattr(runner, name, call)
        database.exclusive = section
        database._log.append = log_append
    reference = [cap.to_document() for cap in MiscelaMiner(params).mine(full).caps]
    assert _canonical(session.caps) == _canonical(reference), (
        "the stream's CAPs differ from a batch mine of prefix + tail"
    )
    return {
        "epochs": LEDGER_EPOCHS,
        "phase_ms_p50": {
            phase: round(statistics.median(values), 3) for phase, values in phase_ms.items()
        },
        "journal_bytes_per_epoch": {
            name: round(size / LEDGER_EPOCHS) for name, size in sorted(journal.items())
        },
    }


def _canonical(caps) -> list[str]:
    return sorted(json.dumps(cap, sort_keys=True) for cap in caps)


def test_stream_epoch_ledger(tmp_path):
    label = os.environ.get("REPRO_BENCH_LABEL", "change")
    ledger = _epoch_ledger(tmp_path / "db.json")
    report = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    report.update({
        "benchmark": "bench_streaming.stream_epoch_ledger",
        "timed_region": "StreamSession.process_epoch on a WAL store; phase_ms_p50: "
                        "median over epochs of each phase's ms in one epoch "
                        "(commit includes checkpoint where export_state runs "
                        "inside the section); journal_bytes_per_epoch: encoded "
                        "WAL bytes of each collection's ops, observation appends "
                        "included, over the epoch count",
        "workload": f"santander seed=2 neighbourhoods=12, {LEDGER_PREFIX}-step "
                    f"prefix, {LEDGER_EPOCHS} epochs of {LEDGER_BATCH} steps, "
                    f"rule {LEDGER_RULE['rule_id']!r}",
    })
    report[label] = {"machine": machine_info(), **ledger}
    print_table(f"stream epoch ledger ({label})", [
        {"phase": phase, "ms_p50": ms} for phase, ms in ledger["phase_ms_p50"].items()
    ] + [
        {"phase": f"journal {name} (bytes/epoch)", "ms_p50": size}
        for name, size in ledger["journal_bytes_per_epoch"].items()
    ])
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
