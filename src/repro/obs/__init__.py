"""Observability: metrics registry, exporters, and host metadata.

``repro.obs`` is the measurement substrate of the whole pipeline — a
dependency-free metrics registry (monotonic counters, gauges, and
fixed-bucket histograms with p50/p95/p99 summaries) with two exporters:
:meth:`MetricsRegistry.snapshot` renders a nested JSON-ready dict, and
:func:`render_prometheus` the Prometheus text exposition format
(:mod:`repro.obs.validate` checks both, as CI's metrics gate).

Two further layers ride on the same zero-cost pattern: a distributed
:class:`~repro.obs.trace.Tracer` (per-batch root spans with stage and
per-shard children, exported as one Chrome ``trace_event`` document —
see :mod:`repro.obs.trace`) and the live admin/scrape HTTP endpoint
(:class:`repro.obs.server.AdminServer`: ``/metrics``, ``/healthz``,
``/varz``).

Both services (:class:`~repro.service.MatchService`,
:class:`~repro.cluster.ShardedMatchService`) take an optional
``metrics`` registry and an optional ``tracer`` and default to
``None`` — with observability disabled the hot path performs no metric
or span work at all (a handful of ``is None`` checks per *batch*,
never per event).
"""

from repro.obs.hostinfo import host_metadata, register_process_collectors
from repro.obs.metrics import (
    Counter, Gauge, Histogram, LATENCY_BUCKETS, MetricsRegistry,
    SIZE_BUCKETS, merge_snapshots,
)
from repro.obs.promtext import parse_prometheus, render_prometheus
from repro.obs.trace import Span, Tracer, maybe_span

# The admin HTTP endpoint lives in repro.obs.server and the CI gate in
# repro.obs.validate, both imported explicitly: importing the metrics
# substrate never drags in http.server, and ``python -m
# repro.obs.validate`` runs a module the package has not imported.

__all__ = [
    "Counter", "Gauge", "Histogram", "LATENCY_BUCKETS",
    "MetricsRegistry", "SIZE_BUCKETS", "Span", "Tracer",
    "host_metadata", "maybe_span", "merge_snapshots",
    "parse_prometheus", "register_process_collectors",
    "render_prometheus",
]
