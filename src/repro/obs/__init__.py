"""repro.obs — structured tracing and metrics for the simulated stack.

Public surface: the event vocabulary (:mod:`repro.obs.events`), the tracer
and its process-wide switch (:mod:`repro.obs.tracer`), the metrics
instruments (:mod:`repro.obs.metrics`) and the Chrome-trace / table
exporters (:mod:`repro.obs.export`).  See ``docs/observability.md``.
"""

from repro.obs.events import Category, InstantEvent, SpanEvent
from repro.obs.export import (
    TraceValidationError,
    chrome_trace,
    metrics_table,
    rank_timeline,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    MAX_EVENTS,
    NULL_TRACER,
    NullTracer,
    Tracer,
    attach,
    disable_tracing,
    drain_tracers,
    enable_tracing,
    live_tracers,
    tracing_enabled,
)

__all__ = [
    "Category",
    "InstantEvent",
    "SpanEvent",
    "TraceValidationError",
    "chrome_trace",
    "metrics_table",
    "rank_timeline",
    "validate_chrome_trace",
    "write_chrome_trace",
    "TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MAX_EVENTS",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "attach",
    "disable_tracing",
    "drain_tracers",
    "enable_tracing",
    "live_tracers",
    "tracing_enabled",
]
