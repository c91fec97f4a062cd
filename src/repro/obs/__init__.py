"""Observability for the plan/kernel/gpusim stack: spans, metrics, traces.

Three pieces (see DESIGN.md §9):

- :class:`Tracer` — hierarchical simulated-time spans
  (``plan.build`` → ``tile[i,j]`` → ``kernel.pass1/pass2`` →
  ``strategy.select`` / ``rowcache.stage``) with a zero-overhead
  :class:`NullTracer` default;
- :class:`MetricsRegistry` — process-local counters / gauges / histograms
  with Prometheus-text and JSON exposition;
- :func:`write_chrome_trace` — Chrome ``trace_event`` export that opens
  directly in ``chrome://tracing`` / Perfetto, with deterministic worker
  lanes laid out in simulated time;
- :class:`Profile` — analysis over a finished tracer (critical path,
  per-category time, folded-stack flamegraphs, roofline bound-ness per
  row-cache strategy; see DESIGN.md §11);
- :class:`SLOMonitor` — declarative :class:`SLObjective` evaluation with
  windowed error-budget burn rates over the serve layer's simulated-clock
  metrics.

Quick start::

    from repro import pairwise_distances
    pairwise_distances(x, metric="cosine", trace="trace.json")

    from repro.neighbors import NearestNeighbors
    nn = NearestNeighbors(metric="manhattan", trace="knn.json").fit(x)
    nn.kneighbors(x)          # writes knn.json after the query
"""

from pathlib import Path
from typing import Optional, Tuple, Union

from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.console import fleet_snapshot, render_snapshot
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    SeriesDelta,
)
from repro.obs.profile import (
    CategoryTime,
    CriticalPath,
    Profile,
    RooflineReport,
    span_critical_path,
    write_folded,
)
from repro.obs.telemetry import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    SamplingDecision,
    SamplingPolicy,
    SamplingReport,
    Telemetry,
    derive_span_id,
    deterministic_trace_id,
    trace_id_for_request,
    validate_event,
)
from repro.obs.slo import (
    SLOAlert,
    SLObjective,
    SLOMonitor,
    SLOStatus,
    default_serve_objectives,
    priority_latency_objectives,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    canonical_trees_equal,
    current_trace_context,
    get_default_tracer,
    set_default_tracer,
    trace_context,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_METRICS",
    "to_chrome_trace",
    "write_chrome_trace",
    "Profile",
    "CategoryTime",
    "CriticalPath",
    "RooflineReport",
    "write_folded",
    "SLObjective",
    "SLOStatus",
    "SLOAlert",
    "SLOMonitor",
    "default_serve_objectives",
    "priority_latency_objectives",
    "current_trace_context",
    "trace_context",
    "get_default_tracer",
    "set_default_tracer",
    "canonical_trees_equal",
    "resolve_trace",
    # telemetry spine (DESIGN.md §16)
    "Telemetry",
    "SamplingPolicy",
    "SamplingDecision",
    "SamplingReport",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "validate_event",
    "deterministic_trace_id",
    "trace_id_for_request",
    "derive_span_id",
    "Exemplar",
    "MetricsSnapshot",
    "SeriesDelta",
    "span_critical_path",
    "fleet_snapshot",
    "render_snapshot",
]


def resolve_trace(trace: Union[str, Path, Tracer, None],
                  ) -> Tuple[Optional[Tracer], Optional[Path]]:
    """Normalize a user-facing ``trace=`` argument.

    ``None`` → no tracing; a :class:`Tracer` → record into it (caller
    exports); a path → record into a fresh tracer and return the path the
    caller should :func:`write_chrome_trace` to when the run finishes.
    """
    if trace is None:
        return None, None
    if isinstance(trace, Tracer):
        return trace, None
    return Tracer(), Path(trace)
