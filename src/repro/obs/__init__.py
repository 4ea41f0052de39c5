"""Observability: metrics, trace spans, profiling, structured logging.

A dependency-free telemetry layer threaded through every subsystem:

* :mod:`repro.obs.metrics` — a process-local registry of counters, gauges,
  and fixed-bucket histograms, rendered as Prometheus text
  (``GET /api/v1/metrics``) and folded into ``/api/v1/admin/stats``;
* :mod:`repro.obs.profiler` — per-phase/per-unit wall-time capture
  threaded through ``MiningControl`` (zero cost when absent);
* :mod:`repro.obs.logging` — stdlib-logging JSON formatter plus a
  context holder that stamps ``trace_id``/``job_id`` onto log lines;
* :mod:`repro.obs.trace` — reassembles the trace spans each job document
  keeps (one per claim, written by the registry's own transitions, so a
  distributed mine's timeline survives crashes exactly like the jobs
  themselves) into the ``repro trace <job_id>`` ASCII waterfall and the
  ``GET /api/v1/jobs/{id}/trace`` JSON tree.
"""

from .logging import JSONLogFormatter, configure_logging, log_context
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
)
from .profiler import Profiler
from .trace import render_waterfall, trace_tree

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JSONLogFormatter",
    "MetricsRegistry",
    "Profiler",
    "configure_logging",
    "get_registry",
    "log_context",
    "render_prometheus",
    "render_waterfall",
    "trace_tree",
]
