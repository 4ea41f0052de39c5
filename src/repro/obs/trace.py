"""Trace reassembly: the JSON span tree and the ASCII waterfall.

Both consumers read the same persisted artifact: the job documents of the
durable registry, each carrying the spans of its last few claims.
``GET /api/v1/jobs/{id}/trace`` serves :func:`trace_tree` verbatim;
``repro trace <job_id>`` renders it through :func:`render_waterfall`.

The waterfall shows one row per span (per *attempt*, so a crashed shard
appears twice: the interrupted attempt and the survivor's recompute) laid
out on a shared time axis — backoff gaps and takeover delays are visible
as the whitespace between a job's bars.
"""

from __future__ import annotations

from typing import Any

__all__ = ["trace_tree", "render_waterfall"]

#: Bar fill per span status — one glyph of forensic shorthand each.
_STATUS_GLYPH = {
    "ok": "=",
    "error": "!",
    "cancelled": "~",
    "released": "~",
    "interrupted": "x",
    "running": "?",
}


def trace_tree(store: Any, job_id: str) -> dict[str, Any]:
    """The span tree of one job (and its shard/merge sub-jobs).

    ``store`` is a :class:`~repro.jobs.durable.DurableJobStore` (anything
    with ``get``/``list``/``spans``).  Raises ``KeyError`` for an unknown
    job.
    """
    job = store.get(job_id)
    if job is None:
        raise KeyError(job_id)
    tree = _node(job, store.spans(job_id))
    if job.distributed:
        for child in store.list(kind=None, parent_id=job_id):
            tree["children"].append(_node(child, store.spans(child.job_id)))
        tree["children"].sort(
            key=lambda node: (
                node["kind"] == "merge",  # merge renders last
                node["shard_index"] if node["shard_index"] is not None else 1 << 30,
            )
        )
    return tree


def _node(job: Any, spans: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "job_id": job.job_id,
        "trace_id": job.trace_id,
        "kind": job.kind,
        "shard_index": job.shard_index,
        "state": job.state,
        "attempt": job.attempt,
        "worker_id": job.worker_id,
        "elapsed_seconds": job.elapsed_seconds,
        "timings": job.timings,
        "spans": [_public_span(job, span) for span in spans],
        "children": [],
    }


def _public_span(job: Any, span: dict[str, Any]) -> dict[str, Any]:
    """One kept span as the trace serves it: the claim's own fields plus
    the identity every span of the job shares, taken from the job."""
    return {
        "span_id": f"{job.job_id}#a{span['attempt']}@{span['worker_id']}",
        "trace_id": job.trace_id,
        "job_id": job.job_id,
        "parent_job_id": job.parent_id,
        "name": "planner" if job.distributed else job.kind,
        "kind": job.kind,
        "shard_index": job.shard_index,
        "worker_id": span["worker_id"],
        "attempt": span["attempt"],
        "start": span["start"],
        "end": span["end"],
        "status": span["status"],
        "error": span["error"],
    }


def _all_spans(tree: dict[str, Any]) -> list[dict[str, Any]]:
    spans = list(tree["spans"])
    for child in tree["children"]:
        spans.extend(child["spans"])
    return spans


def _row_label(span: dict[str, Any]) -> str:
    worker = span.get("worker_id") or "-"
    return (
        f"{span['job_id']}  {span.get('name') or span.get('kind')}"
        f"  a{span.get('attempt')}  {worker}"
    )


def render_waterfall(tree: dict[str, Any], width: int = 60) -> str:
    """ASCII timeline of one trace tree (one row per span attempt)."""
    spans = _all_spans(tree)
    lines: list[str] = []
    header = f"trace {tree.get('trace_id') or '(none)'} · job {tree['job_id']} ({tree['kind']}) state={tree['state']}"
    lines.append(header)
    if not spans:
        lines.append("(no spans persisted for this job)")
        return "\n".join(lines)

    starts = [float(s["start"]) for s in spans if s.get("start") is not None]
    ends = [float(s["end"]) for s in spans if s.get("end") is not None]
    t0 = min(starts)
    t1 = max(ends + starts)
    total = max(t1 - t0, 1e-9)
    lines.append(f"window {total:.3f}s · {len(spans)} span(s)")

    label_width = max(len(_row_label(s)) for s in spans)
    ordered = sorted(
        spans,
        key=lambda s: (
            s.get("kind") == "merge",
            s["shard_index"] if s.get("shard_index") is not None else -1,
            int(s.get("attempt") or 0),
            float(s.get("start") or 0.0),
        ),
    )
    for span in ordered:
        start = float(span["start"])
        end = float(span["end"]) if span.get("end") is not None else t1
        lead = int(round((start - t0) / total * width))
        span_cols = max(1, int(round((end - start) / total * width)) or 1)
        lead = min(lead, width - 1)
        span_cols = min(span_cols, width - lead)
        glyph = _STATUS_GLYPH.get(str(span.get("status")), "?")
        bar = " " * lead + glyph * span_cols
        bar = bar.ljust(width)
        duration = (
            f"{end - start:7.3f}s"
            if span.get("end") is not None
            else "   open "
        )
        status = str(span.get("status", "?")).ljust(11)
        lines.append(
            f"{_row_label(span).ljust(label_width)}  {status} {duration} |{bar}|"
        )
        if span.get("error"):
            lines.append(f"{' ' * label_width}    error: {span['error']}")

    shard_timings = [
        child
        for child in tree["children"]
        if child["kind"] == "shard" and child.get("elapsed_seconds") is not None
    ]
    if shard_timings:
        lines.append("measured shard wall-times (estimate_seed_cost ground truth):")
        for child in shard_timings:
            parts = [f"  {child['job_id']}: {child['elapsed_seconds']:.3f}s"]
            timings = child.get("timings") or {}
            phases = timings.get("phases") or {}
            if phases:
                parts.append(
                    " ("
                    + ", ".join(
                        f"{name} {entry['seconds']:.3f}s"
                        for name, entry in phases.items()
                    )
                    + ")"
                )
            lines.append("".join(parts))
    legend = " ".join(f"{glyph}={name}" for name, glyph in _STATUS_GLYPH.items())
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
