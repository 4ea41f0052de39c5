"""Command-line interface for the Miscela-V reproduction.

Everything the demo's web UI drives is reachable from a terminal:

* ``inventory`` — the §4 dataset table (paper vs generated);
* ``generate``  — write a synthetic dataset as data/location/attribute CSVs;
* ``mine``      — run CAP mining over a dataset directory or a named
  synthetic dataset, with the four paper parameters as flags;
* ``report``    — mine and write the Figure-3 HTML report;
* ``sweep``     — the §2.1 sensitivity sweep, as a table and optional SVG;
* ``compare``   — the Figure-4 before/after diff at a split date;
* ``serve``     — start the Figure-2 API server (the versioned ``/api/v1``
  resource API); with ``--store`` the job registry persists with the
  store: jobs survive restarts and several server processes sharing the
  store claim work through leases;
* ``jobs``      — inspect (``list``) or recover (``recover``) the durable
  job registry of a store without starting a server;
* ``trace``     — reconstruct one job's timeline (an ASCII waterfall of its
  persisted spans — for a distributed mine: planner, every shard attempt,
  merge) straight from a store, no server needed;
* ``schema``    — emit the generated API schema (JSON), regenerate the
  ``API.md`` reference, or check route/reference parity.

Examples::

    repro-miscela inventory
    repro-miscela generate santander --seed 7 --out ./santander_csv
    repro-miscela mine --dataset santander --min-support 10 --json caps.json
    repro-miscela mine --dataset china6 --async --watch
    repro-miscela report --dataset china6 --out report.html
    repro-miscela sweep --dataset santander --parameter min_support \\
        --values 2,5,10,20 --svg sweep.svg
    repro-miscela compare --dataset covid19 --split 2020-01-23
    repro-miscela serve --port 8000
    repro-miscela serve --store ./miscela.json --lease-seconds 10
    repro-miscela jobs recover --store ./miscela.json
    repro-miscela schema --out API.md
    repro-miscela schema --check API.md
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from datetime import datetime
from pathlib import Path
from typing import Sequence

from .analysis.comparison import compare_periods
from .analysis.sensitivity import SWEEPABLE_PARAMETERS, sweep
from .core.miner import MiscelaMiner
from .core.parameters import MiningParameters
from .core.types import SensorDataset
from .data.csv_io import read_dataset_dir, write_dataset_dir
from .data.datasets import DATASET_NAMES, dataset_table, generate, recommended_parameters

__all__ = ["main", "build_parser"]


def _print_table(rows: list[dict], stream=None) -> None:
    stream = stream or sys.stdout
    if not rows:
        print("(no rows)", file=stream)
        return
    columns = list(rows[0])
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    print("  ".join(str(c).ljust(widths[c]) for c in columns), file=stream)
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns), file=stream)


def _load_dataset(args: argparse.Namespace) -> SensorDataset:
    """Resolve --dataset (registry name) or --data-dir (CSV directory)."""
    if getattr(args, "data_dir", None):
        return read_dataset_dir(args.data_dir)
    name = args.dataset
    if name not in DATASET_NAMES:
        raise SystemExit(
            f"unknown dataset {name!r}; choose from {', '.join(DATASET_NAMES)} "
            f"or pass --data-dir"
        )
    return generate(name, seed=args.seed)


def _params_from_args(args: argparse.Namespace, dataset_name: str) -> MiningParameters:
    """Start from the dataset's recommended parameters, apply flag overrides."""
    if dataset_name in DATASET_NAMES:
        params = recommended_parameters(dataset_name)
    else:
        params = MiningParameters(
            evolving_rate=1.0, distance_threshold=1.0, max_attributes=3, min_support=5
        )
    overrides = {}
    for flag, field in [
        ("evolving_rate", "evolving_rate"),
        ("distance_threshold", "distance_threshold"),
        ("max_attributes", "max_attributes"),
        ("min_support", "min_support"),
        ("max_sensors", "max_sensors"),
        ("max_delay", "max_delay"),
        ("segmentation", "segmentation"),
        ("segmentation_error", "segmentation_error"),
        ("n_jobs", "n_jobs"),
    ]:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "direction_aware", False):
        overrides["direction_aware"] = True
    return params.with_updates(**overrides) if overrides else params


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("mining parameters (defaults: recommended per dataset)")
    group.add_argument("--evolving-rate", dest="evolving_rate", type=float, metavar="ε")
    group.add_argument("--distance-threshold", dest="distance_threshold", type=float, metavar="η")
    group.add_argument("--max-attributes", dest="max_attributes", type=int, metavar="μ")
    group.add_argument("--min-support", dest="min_support", type=int, metavar="ψ")
    group.add_argument("--max-sensors", dest="max_sensors", type=int)
    group.add_argument("--max-delay", dest="max_delay", type=int, metavar="δ")
    group.add_argument("--direction-aware", dest="direction_aware", action="store_true")
    group.add_argument("--segmentation", choices=["none", "sliding_window", "bottom_up", "top_down"])
    group.add_argument("--segmentation-error", dest="segmentation_error", type=float)
    group.add_argument(
        "--jobs", dest="n_jobs", type=int, metavar="N",
        help="worker processes for the CAP search (0 = all cores, default 1)",
    )


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="santander",
                        help=f"synthetic dataset name ({', '.join(DATASET_NAMES)})")
    parser.add_argument("--data-dir", help="directory with data/location/attribute CSVs")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-miscela",
        description="Miscela-V reproduction: CAP mining over smart-city sensor data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inventory", help="print the §4 dataset table")

    p_gen = sub.add_parser("generate", help="write a synthetic dataset as CSVs")
    p_gen.add_argument("name", choices=list(DATASET_NAMES))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_mine = sub.add_parser("mine", help="mine CAPs and print/save them")
    _add_dataset_flags(p_mine)
    _add_param_flags(p_mine)
    p_mine.add_argument("--json", help="write CAPs to this JSON file")
    p_mine.add_argument("--top", type=int, default=10, help="rows to print")
    p_mine.add_argument(
        "--async", dest="asynchronous", action="store_true",
        help="run through the job queue (submit, then poll until done)",
    )
    p_mine.add_argument(
        "--watch", action="store_true",
        help="with --async: print job state/progress while polling",
    )
    p_mine.add_argument(
        "--poll-interval", dest="poll_interval", type=float, default=0.2,
        metavar="SECONDS", help="with --async: delay between status polls",
    )

    p_rep = sub.add_parser("report", help="mine and write the Figure-3 HTML report")
    _add_dataset_flags(p_rep)
    _add_param_flags(p_rep)
    p_rep.add_argument("--out", default="report.html")
    p_rep.add_argument("--max-caps", dest="max_caps", type=int, default=10)
    p_rep.add_argument("--markdown", help="also write a Markdown summary here")

    p_sweep = sub.add_parser("sweep", help="§2.1 parameter sensitivity sweep")
    _add_dataset_flags(p_sweep)
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=sorted(SWEEPABLE_PARAMETERS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 2,5,10,20")
    p_sweep.add_argument("--svg", help="write the sweep curve to this SVG file")

    p_cmp = sub.add_parser("compare", help="Figure-4 before/after comparison")
    _add_dataset_flags(p_cmp)
    _add_param_flags(p_cmp)
    p_cmp.add_argument("--split", required=True, help="split date, YYYY-MM-DD")

    p_srv = sub.add_parser("serve", help="start the Figure-2 API server")
    p_srv.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 = pick a free one; the chosen port "
                            "is announced on the MISCELA_READY line)")
    p_srv.add_argument("--store", help="store path for persistence (the WAL "
                       "log under <path>.wal/); the job registry persists there "
                       "too (jobs survive restarts, several processes may "
                       "share one store)")
    p_srv.add_argument("--preload", action="store_true",
                       help="pre-upload synthetic santander")
    p_srv.add_argument("--preload-dataset", dest="preload_dataset",
                       choices=list(DATASET_NAMES),
                       help="pre-upload this synthetic dataset instead")
    p_srv.add_argument("--preload-seed", dest="preload_seed", type=int, default=7,
                       help="generator seed for --preload/--preload-dataset")
    p_srv.add_argument("--job-workers", dest="job_workers", type=int, default=2,
                       help="claim-loop threads running jobs (async, "
                            "distributed and streaming submissions)")
    p_srv.add_argument("--lease-seconds", dest="lease_seconds", type=float,
                       default=30.0,
                       help="with --store: how long a claimed job's lease "
                            "lasts without a progress renewal")
    p_srv.add_argument("--worker-poll", dest="worker_poll", type=_positive_seconds,
                       default=1.0, metavar="SECONDS",
                       help="how often an idle claim loop looks for jobs "
                            "(> 0): those other processes enqueued, resting "
                            "stream jobs, lapsed leases; local submissions "
                            "start at once (default 1.0)")
    p_srv.add_argument("--max-attempts", dest="max_attempts", type=int,
                       default=5, metavar="N",
                       help="with --store: dead-letter a job (or shard "
                            "sub-job) after it loses its worker N times "
                            "instead of requeueing forever (0 = unlimited, "
                            "default 5)")
    p_srv.add_argument("--worker-id", dest="worker_id",
                       help="with --store: stable worker identity stamped on "
                            "claimed jobs (default: pid-derived)")
    p_srv.add_argument("--compact-seconds", dest="compact_seconds", type=float,
                       metavar="SECONDS",
                       help="background compaction sweep interval: store "
                            "log rewrites (with --store) plus the stream "
                            "retention pass (default: disabled)")
    p_srv.add_argument("--stream-retention", dest="stream_retention", type=int,
                       metavar="N",
                       help="server-wide default stream retention: keep the "
                            "newest N cap_events per dataset, folding older "
                            "ones into the feed snapshot on each compaction "
                            "sweep (default: retention only where a dataset "
                            "configures it via PATCH .../stream-config)")
    p_srv.add_argument("--log-format", dest="log_format",
                       choices=["text", "json"], default="text",
                       help="stdlib logging output: human-readable lines or "
                            "one JSON object per record (each carries "
                            "trace_id/job_id context when present)")
    p_srv.add_argument("--log-level", dest="log_level", default="info",
                       choices=["debug", "info", "warning", "error"],
                       help="root logger threshold (default info)")

    p_jobs = sub.add_parser(
        "jobs", help="inspect / recover the durable job registry of a store"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)
    p_jrec = jobs_sub.add_parser(
        "recover",
        help="requeue interrupted jobs and republish finished ones",
    )
    p_jrec.add_argument("--store", required=True, help="store path")
    p_jrec.add_argument("--lease-seconds", dest="lease_seconds", type=float,
                        default=30.0)
    p_jlist = jobs_sub.add_parser("list", help="print the registry's jobs")
    p_jlist.add_argument("--store", required=True, help="store path")
    p_jlist.add_argument("--status", help="filter by job state")
    p_jredrive = jobs_sub.add_parser(
        "redrive",
        help="replay quarantined dead-letter jobs as fresh queued jobs "
             "(attempt counters reset; any worker may claim them)",
    )
    p_jredrive.add_argument("--store", required=True, help="store path")
    p_jredrive.add_argument(
        "--job-id", dest="job_ids", action="append", metavar="JOB_ID",
        help="redrive only this dead-lettered job (repeatable; "
             "default: every letter)",
    )

    p_store = sub.add_parser(
        "store", help="inspect / maintain a store (WAL verify, compaction)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sver = store_sub.add_parser(
        "verify",
        help="offline checksum walk of the store log (and of an older "
             "store's per-collection logs, each in its own format); exit 1 "
             "on a torn tail or an unknown FORMAT",
    )
    p_sver.add_argument("--store", required=True, help="store path")
    p_scomp = store_sub.add_parser(
        "compact",
        help="rewrite the store log to its live state (and archive a "
             "migrated legacy snapshot)",
    )
    p_scomp.add_argument("--store", required=True, help="store path")

    p_trace = sub.add_parser(
        "trace",
        help="render the persisted span timeline of one job as an ASCII "
             "waterfall (durable stores only)",
    )
    p_trace.add_argument("job_id", help="the job to reconstruct")
    p_trace.add_argument("--store", required=True, help="store path")
    p_trace.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the span tree as JSON instead of the "
                              "waterfall (the /api/v1/jobs/{id}/trace shape)")
    p_trace.add_argument("--width", type=int, default=60,
                         help="timeline width in columns (default 60)")

    p_stream = sub.add_parser(
        "stream", help="inspect a dataset's live CAP change feed"
    )
    stream_sub = p_stream.add_subparsers(dest="stream_command", required=True)
    p_tail = stream_sub.add_parser(
        "tail",
        help="print the newest CAP change events of a dataset's feed",
    )
    p_tail.add_argument("dataset", help="dataset name")
    p_tail.add_argument("--store", required=True, help="store path")
    p_tail.add_argument(
        "--cursor", type=int, default=None,
        help="print events with seq > CURSOR (default: the last --limit)",
    )
    p_tail.add_argument("--limit", type=int, default=20,
                        help="events to print (default 20)")
    p_tail.add_argument("--json", action="store_true", dest="as_json",
                        help="emit raw event documents as JSON lines")

    p_alerts = sub.add_parser(
        "alerts", help="print the alerts the stream engine fired for a dataset"
    )
    p_alerts.add_argument("dataset", help="dataset name")
    p_alerts.add_argument("--store", required=True, help="store path")
    p_alerts.add_argument("--rule", help="only alerts fired by this rule_id")
    p_alerts.add_argument("--json", action="store_true", dest="as_json",
                          help="emit raw alert documents as JSON lines")

    p_schema = sub.add_parser(
        "schema", help="emit the generated API schema / reference"
    )
    p_schema.add_argument("--out", help="write the Markdown reference (API.md) here")
    p_schema.add_argument(
        "--check", metavar="API_MD",
        help="fail if any registered route is missing from the schema or "
             "from this Markdown file",
    )

    return parser


def cmd_inventory(args: argparse.Namespace) -> int:
    _print_table(dataset_table(seed=0))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate(args.name, seed=args.seed)
    directory = write_dataset_dir(dataset, args.out)
    print(f"wrote {dataset.name}: {len(dataset)} sensors, "
          f"{dataset.num_records} records -> {directory}")
    return 0


def _print_mine_result(result, params: MiningParameters, args: argparse.Namespace) -> None:
    print(f"{result.num_caps} CAPs in {result.elapsed_seconds:.3f}s "
          f"(ε={params.evolving_rate}, η={params.distance_threshold}, "
          f"μ={params.max_attributes}, ψ={params.min_support})")
    _print_table(
        [
            {
                "support": cap.support,
                "attributes": ",".join(sorted(cap.attributes)),
                "sensors": ",".join(sorted(cap.sensor_ids)),
            }
            for cap in result.caps[: args.top]
        ]
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps([cap.to_document() for cap in result.caps], indent=2)
        )
        print(f"wrote {args.json}")


def _positive_seconds(text: str) -> float:
    """argparse type: a duration in seconds, finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _mine_async(dataset: SensorDataset, params: MiningParameters,
                args: argparse.Namespace) -> int:
    """Submit-and-poll mode: the job queue runs the mine, we watch it."""
    import time

    from .cache.keys import cache_key
    from .jobs import FAILED, SUCCEEDED, TERMINAL_STATES, DurableJobStore, JobQueue
    from .store.database import Database

    key = cache_key(dataset.name, params)
    outcome: dict = {}

    def runner(control):
        outcome["result"] = MiscelaMiner(params).mine(dataset, control=control)
        return key

    queue = JobQueue(DurableJobStore(Database()), lambda job: runner, width=1)
    job, _created = queue.submit(dataset.name, params.to_document(), key)
    print(f"submitted {job.job_id} (dataset={dataset.name})")
    last_line = ""
    try:
        while True:
            snapshot = queue.store.get(job.job_id)
            assert snapshot is not None
            if args.watch:
                line = (f"[{snapshot.job_id}] {snapshot.state} "
                        f"{snapshot.progress:.0%} "
                        f"({snapshot.shards_done}/{snapshot.shards_total} shards)")
                if line != last_line:
                    print(line)
                    last_line = line
            if snapshot.state in TERMINAL_STATES:
                break
            time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        from .jobs import JobStateError

        try:
            queue.store.request_cancel(job.job_id)
            print(f"cancel requested for {job.job_id}; waiting for the checkpoint...")
        except JobStateError:
            pass  # finished between the last poll and the interrupt
        queue.shutdown(wait=True)
        print(f"{job.job_id} {queue.store.get(job.job_id).state}")
        return 130
    queue.shutdown(wait=True)
    final = queue.store.get(job.job_id)
    if final.state == FAILED:
        raise SystemExit(f"job {final.job_id} failed: "
                         f"{final.error.type}: {final.error.message}")
    if final.state != SUCCEEDED:
        raise SystemExit(f"job {final.job_id} ended {final.state}")
    _print_mine_result(outcome["result"], params, args)
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    params = _params_from_args(args, dataset.name)
    if args.asynchronous:
        return _mine_async(dataset, params, args)
    result = MiscelaMiner(params).mine(dataset)
    _print_mine_result(result, params, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .viz.report import CapReport

    dataset = _load_dataset(args)
    params = _params_from_args(args, dataset.name)
    result = MiscelaMiner(params).mine(dataset)
    path = CapReport(dataset, result, max_caps=args.max_caps).save_html(args.out)
    print(f"{result.num_caps} CAPs; wrote {path}")
    if args.markdown:
        from .analysis.reporting import result_to_markdown

        Path(args.markdown).write_text(result_to_markdown(dataset, result))
        print(f"wrote {args.markdown}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    params = _params_from_args(args, dataset.name)
    try:
        values = [float(v) if "." in v else int(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise SystemExit(f"bad --values: {exc}")
    points = sweep(dataset, params, args.parameter, values)
    _print_table(
        [
            {args.parameter: p.value, "caps": p.num_caps,
             "mine_ms": f"{p.elapsed_seconds * 1000:.1f}"}
            for p in points
        ]
    )
    if args.svg:
        from .viz.charts import render_sweep_chart

        render_sweep_chart(points).save(args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    params = _params_from_args(args, dataset.name)
    try:
        split = datetime.strptime(args.split, "%Y-%m-%d")
    except ValueError as exc:
        raise SystemExit(f"bad --split date: {exc}")
    comparison = compare_periods(dataset, split, params)
    summary = comparison.summary()
    _print_table([
        {"metric": k, "value": v}
        for k, v in summary.items()
        if k != "level_shifts"
    ])
    print("level shifts (after - before):")
    _print_table([
        {"attribute": a, "shift": f"{v:+.2f}"}
        for a, v in summary["level_shifts"].items()
    ])
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs.logging import configure_logging
    from .server.app import TestClient, create_app
    from .server.http import make_threaded_server, wsgi_adapter
    from .store.database import Database

    configure_logging(level=args.log_level, log_format=args.log_format)
    database = Database(args.store) if args.store else None
    app = create_app(
        database,
        with_logging=True,
        job_workers=args.job_workers,
        worker_poll=args.worker_poll,
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        auto_compact_seconds=args.compact_seconds,
        stream_retention=(
            {"retention_seqs": args.stream_retention}
            if args.stream_retention
            else None
        ),
    )
    preload_name = args.preload_dataset or ("santander" if args.preload else None)
    if preload_name:
        dataset = generate(preload_name, seed=args.preload_seed)
        response = TestClient(app).upload_dataset(dataset)
        print(f"pre-loaded {preload_name}: {response.status}", flush=True)
    # Threaded server: status polls and map clicks stay responsive while a
    # mine runs (async on a claim loop, or sync on a request thread).
    server = make_threaded_server("127.0.0.1", args.port, wsgi_adapter(app))
    port = server.server_address[1]
    print(f"Miscela-V API on http://127.0.0.1:{port} "
          f"(threaded, {args.job_workers} job workers; Ctrl-C to stop)", flush=True)
    print(f"  v1 API:  http://127.0.0.1:{port}/api/v1 "
          f"(schema at /api/v1/schema)",
          flush=True)
    worker = app.state.jobs.store.worker_id
    print(f"  jobs: store={args.store or 'in-memory'} worker_id={worker} "
          f"lease={args.lease_seconds}s (worker poll {args.worker_poll}s)",
          flush=True)
    # Machine-readable readiness line: the fault-injection harness (and any
    # supervisor) parses the actual port from it, which makes --port 0 usable.
    print(f"MISCELA_READY port={port}", flush=True)

    # Graceful SIGTERM: funnel into the KeyboardInterrupt path below, where
    # app.close() releases claimed jobs/shards (CAS back to queued) so a
    # surviving process takes them over immediately instead of waiting out
    # the lease.  kill -9 still exercises the lease-expiry path.
    def _sigterm(signum, frame):  # pragma: no cover - exercised via subprocess
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # Wait for the workers: running jobs cancel at their next checkpoint
        # (every acknowledged write is already fsync'd to the WAL).
        app.close(wait=True)
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from .jobs import DurableJobStore
    from .store.database import Database

    path = Path(args.store)
    if not path.exists() and not _wal_root(path).exists():
        raise SystemExit(f"no store at {path}")
    store = DurableJobStore(
        Database(path),
        lease_seconds=getattr(args, "lease_seconds", 30.0),
        worker_id="cli-recover",
    )
    if args.jobs_command == "recover":
        summary = store.recover()
        for field in ("requeued", "republished", "missing_results",
                      "dead_lettered", "queued"):
            print(f"{field}: {len(summary[field])}"
                  + (f" ({', '.join(summary[field])})" if summary[field] else ""))
        return 0
    if args.jobs_command == "redrive":
        revived = store.redrive(args.job_ids or None)
        if not revived:
            print("nothing to redrive (no matching dead letters)")
        for job_id in revived:
            print(f"redriven: {job_id}")
        return 0
    jobs = store.list(args.status)
    _print_table(
        [
            {
                "job_id": job.job_id,
                "state": job.state,
                "dataset": job.dataset,
                "progress": f"{job.progress:.0%}",
                "attempt": job.attempt,
                "worker": job.worker_id or "-",
            }
            for job in jobs
        ]
    )
    return 0


def _wal_root(path: Path) -> Path:
    """The WAL directory of a store path (``<path>.wal/``)."""
    return path.with_name(path.name + ".wal")


def cmd_store(args: argparse.Namespace) -> int:
    from .store import wal

    path = Path(args.store)
    root = _wal_root(path)

    if args.store_command == "compact":
        from .store.database import Database

        if not path.exists() and not root.exists():
            raise SystemExit(f"no store at {path}")
        result = Database(path).compact()
        if not result["compacted"]:
            print(f"{wal.LOG_NAME}: not compacted (another process rewrote it first)")
            return 0
        print(f"{wal.LOG_NAME}: {result['before_bytes']} -> "
              f"{result['after_bytes']} bytes (compacted)")
        return 0

    # verify: offline checksum walk, no locks taken, nothing mutated.  Each
    # file is checked with the format it belongs to: the v3 log, and the
    # per-collection logs of an older store not yet migrated (a v1 store
    # whose v2 rewrite was cut short holds both suffixes).
    torn = False
    checked = 0
    if root.is_dir():
        try:
            found = wal.read_format(root)
        except wal.UnknownFormatError as error:
            raise SystemExit(str(error))
        print(f"format: {found or 'none (no FORMAT marker)'}")
        logs = [(root / wal.LOG_NAME, wal.FORMAT_V3)] if found == wal.FORMAT_V3 else []
        for fmt, suffix in wal.SEGMENT_SUFFIXES.items():
            logs += [(log_path, fmt) for log_path in sorted(root.glob("*" + suffix))]
        for log_path, fmt in logs:
            report = wal.verify_log(log_path, wal.format_checksum(fmt))
            checked += 1
            status = "TORN" if report["torn"] else "ok"
            print(f"{log_path.name}: {report['records']} records, "
                  f"{report['valid_bytes']}/{report['total_bytes']} bytes "
                  f"valid [{status}]")
            torn = torn or report["torn"]
    if path.is_file():
        import json as _json

        try:
            _json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, UnicodeDecodeError):
            print(f"{path.name}: legacy snapshot UNPARSEABLE")
            torn = True
        else:
            print(f"{path.name}: legacy snapshot ok")
        checked += 1
    if checked == 0:
        raise SystemExit(f"no store at {path}")
    return 1 if torn else 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .jobs import DurableJobStore
    from .obs.trace import render_waterfall, trace_tree
    from .store.database import Database

    path = Path(args.store)
    if not path.exists() and not _wal_root(path).exists():
        raise SystemExit(f"no store at {path}")
    store = DurableJobStore(Database(path), worker_id="cli-trace")
    try:
        tree = trace_tree(store, args.job_id)
    except KeyError:
        raise SystemExit(f"unknown job {args.job_id!r} in {path}")
    if args.as_json:
        print(json.dumps(tree, indent=2, sort_keys=True))
    else:
        print(render_waterfall(tree, width=max(20, args.width)))
    return 0


def _open_store_database(store: str):
    from .store.database import Database

    path = Path(store)
    if not path.exists() and not _wal_root(path).exists():
        raise SystemExit(f"no store at {path}")
    return Database(path)


def cmd_stream(args: argparse.Namespace) -> int:
    from .stream import first_live_seq, latest_seq, read_events

    database = _open_store_database(args.store)
    limit = max(1, args.limit)
    newest = latest_seq(database, args.dataset)
    cursor = args.cursor if args.cursor is not None else max(0, newest - limit)
    first_live = first_live_seq(database, args.dataset)
    if cursor < first_live - 1:
        # Offline equivalent of the API's 410: the prefix was folded into
        # the feed snapshot, so resume from the horizon instead of
        # printing a silently-incomplete tail.
        print(f"cursor {cursor} predates the retention horizon; events below "
              f"seq {first_live} are folded into the feed snapshot "
              f"(GET /api/v1/datasets/{args.dataset}/events/snapshot) — "
              f"resuming from {first_live - 1}")
        cursor = first_live - 1
    events = read_events(database, args.dataset, cursor=cursor, limit=limit)
    if args.as_json:
        for event in events:
            print(json.dumps(event, sort_keys=True))
        return 0
    if not events:
        print(f"no events after cursor {cursor} "
              f"(feed for {args.dataset!r} is at seq {newest})")
        return 0
    _print_table(
        [
            {
                "seq": event["seq"],
                "epoch": event["epoch"],
                "type": event["type"],
                "sensors": ",".join(event["cap"].get("sensors", [])),
                "attributes": ",".join(event["cap"].get("attributes", [])),
                "support": event["cap"].get("support", "-"),
            }
            for event in events
        ]
    )
    print(f"cursor: {events[-1]['seq']} (pass --cursor to resume)")
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    database = _open_store_database(args.store)
    rows = database.collection("alerts").find({"dataset": args.dataset}, sort="seq")
    if args.rule:
        rows = [row for row in rows if row.get("rule_id") == args.rule]
    documents = [{k: v for k, v in row.items() if k != "_id"} for row in rows]
    if args.as_json:
        for document in documents:
            print(json.dumps(document, sort_keys=True))
        return 0
    if not documents:
        print(f"no alerts fired for {args.dataset!r}")
        return 0
    _print_table(
        [
            {
                "seq": doc["seq"],
                "epoch": doc["epoch"],
                "rule": doc["rule_id"],
                "severity": doc["severity"],
                "event": doc["event_type"],
                "sensors": f"{doc['num_sensors']} (>= {doc['min_sensors']})",
            }
            for doc in documents
        ]
    )
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    from .server.schema import main as schema_main

    argv: list[str] = []
    if args.out:
        argv += ["--out", args.out]
    if args.check:
        argv += ["--check", args.check]
    return schema_main(argv)


_COMMANDS = {
    "inventory": cmd_inventory,
    "generate": cmd_generate,
    "mine": cmd_mine,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "serve": cmd_serve,
    "jobs": cmd_jobs,
    "store": cmd_store,
    "trace": cmd_trace,
    "stream": cmd_stream,
    "alerts": cmd_alerts,
    "schema": cmd_schema,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
