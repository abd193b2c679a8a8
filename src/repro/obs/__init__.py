"""Observability substrate: structured tracing and unified metrics.

``repro.obs`` replaces the repo's patchwork of ad-hoc ``perf_counter``
timers with two first-class primitives:

* :class:`~repro.obs.trace.Tracer` — structured spans
  (``trace_id``/``span_id``/``parent_id``, attrs, host wall time *and*
  modelled device seconds) with context propagation and a zero-overhead
  no-op path when disabled.  Exportable as JSONL or Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``).
* :class:`~repro.obs.metrics.MetricsRegistry` — process-wide counters
  plus the snapshot sections that the serving telemetry (with its
  rolling-percentile :class:`~repro.obs.metrics.RollingLatency` windows),
  compile cache and occupancy ledger re-register, so one ``snapshot()``
  covers the whole system.

The ROADMAP's autotuning (measured sweep times to calibrate the perf model)
and async-serving (per-tenant latency attribution) items consume this
substrate.
"""

from repro.obs.export import (
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    RollingLatency,
    global_registry,
    reset_global_registry,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer, current_span, span

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "current_span",
    "span",
    "RollingLatency",
    "Counter",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
]
