"""Unified observability core: metrics registry + span tracing.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` holds
every counter, gauge and histogram of the pipeline, the store tiers,
the envelope codec layer and the job service; ``GET /metrics``
exposes it as Prometheus text.  A
:class:`~repro.obs.metrics.CounterScope` reads one unit of work's
share of those counters: ``RunRecord.stats``, span ``stats`` and job
traces all come from a scope opened around the work, never from a
diff of shared totals.

The tracing half (:mod:`repro.obs.trace`) builds nestable spans from
explicit :func:`~repro.obs.trace.trace_span` sites: the pipeline's
``stage:<name>`` spans, the mapper inner loops, the store tiers and
the HTTP handler.  With no tracer active every site is a near-free
null check — the overhead contract of the recorded perf trajectory.

See ``docs/observability.md`` for the instrument catalogue, the span
taxonomy and the exposition/trace file contracts.
"""

from repro.obs.metrics import (Counter, CounterScope, Gauge, Histogram,
                               MetricsRegistry, default_registry,
                               set_default_registry, use_registry)
from repro.obs.trace import (SpanRecord, Tracer, chrome_trace,
                             current_tracer, trace_span)

__all__ = [
    "Counter", "CounterScope", "Gauge", "Histogram", "MetricsRegistry",
    "default_registry", "set_default_registry", "use_registry",
    "SpanRecord", "Tracer", "chrome_trace", "current_tracer",
    "trace_span",
]
