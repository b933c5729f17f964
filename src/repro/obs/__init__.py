"""repro.obs — unified observability: metrics registry + query tracer.

The package gives every layer of the reproduction one switchboard for
the internal work counts the paper's evaluation is built on (label
probes, R-tree node accesses, candidate verifications) plus a per-query
span tracer:

* :mod:`repro.obs.metrics` — counters, gauges, fixed log-bucket
  histograms, and the process-wide :data:`REGISTRY`;
* :mod:`repro.obs.instruments` — the named instruments the hot paths
  flush into (the metric naming scheme lives there);
* :mod:`repro.obs.trace` — span trees with monotonic timings and
  counter deltas (``with obs.trace(...)`` / ``obs.span(...)``) and W3C
  trace-id helpers;
* :mod:`repro.obs.recorder` — the bounded slow-query flight recorder
  behind the service's ``/debug/*`` endpoints;
* :mod:`repro.obs.slo` — per-endpoint objectives, multi-window burn
  rates and error budgets (``repro_slo_*`` gauges, ``/healthz``);
* :mod:`repro.obs.export` — JSON and Prometheus-text exporters.

Quick tour::

    from repro import obs

    obs.enable()                      # on by default
    answer = method.query(v, region)
    print(obs.render_prometheus())    # repro_method_queries_total{...} 1

    with obs.measure() as delta:      # per-call counter attribution
        method.query(v, region)
    print(delta["repro_rtree_nodes_visited_total"])

    with obs.trace("query") as t:     # per-query span breakdown
        method.query(v, region)
    print(t.format())

``obs.disable()`` turns every flush into a module-level no-op check, so
an observability-free run pays one boolean test per query.
"""

from __future__ import annotations

from repro.obs.export import render_json, render_prometheus
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    estimate_quantile,
    get_registry,
    observability,
)
from repro.obs.recorder import FlightRecorder, RecordedRequest
from repro.obs.slo import Objective, SLOMonitor, default_objectives
from repro.obs.trace import (
    Span,
    Trace,
    active_trace,
    new_trace_id,
    parse_traceparent,
    span,
    trace,
    tracing,
    valid_request_id,
)

__all__ = [
    "REGISTRY",
    "Counter",
    "CounterFamily",
    "FlightRecorder",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "Objective",
    "RecordedRequest",
    "SLOMonitor",
    "Span",
    "Trace",
    "active_trace",
    "default_objectives",
    "disable",
    "enable",
    "enabled",
    "estimate_quantile",
    "get_registry",
    "measure",
    "new_trace_id",
    "observability",
    "parse_traceparent",
    "render_json",
    "render_prometheus",
    "span",
    "trace",
    "tracing",
    "valid_request_id",
]


class measure:
    """Collect counter deltas for the enclosed block.

    Yields a dict that is filled on exit with every counter sample that
    changed (``sample_key -> delta``)::

        with obs.measure() as delta:
            method.query(v, region)
        probes = delta.get("repro_method_label_probes_total"
                           "{method=\\"3dreach\\"}", 0)
    """

    def __init__(self) -> None:
        self._delta: dict[str, int | float] = {}
        self._before: dict[str, int | float] = {}

    def __enter__(self) -> dict[str, int | float]:
        self._before = REGISTRY.counter_samples()
        return self._delta

    def __exit__(self, *exc_info) -> bool:
        after = REGISTRY.counter_samples()
        before = self._before
        self._delta.update(
            (key, value - before.get(key, 0))
            for key, value in after.items()
            if value != before.get(key, 0)
        )
        return False
