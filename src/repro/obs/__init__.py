"""Observability: structured tracing, metrics, and trace reporting.

The reproduction's headline claims are *cost* claims (page accesses, CPU
work, clustering scalability), so this package makes cost visible below
whole-query granularity:

* :class:`Tracer` — nested spans with wall time, event-log ordering, and a
  per-span :class:`~repro.storage.metrics.CostSnapshot` delta (each span
  knows its own page reads / distance flops / key comparisons).
* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms (``knn.radius_expansions``, ``buffer.hit_rate``, ...).
* :mod:`repro.obs.export` — JSONL trace files.
* :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``
  prints a per-span total/mean/p95 + cost table; ``--explain`` renders
  each query as an explain-plan tree.
* :mod:`repro.obs.explain` — :class:`QueryExplain`, one query's span tree
  as an exactly-telescoping cost breakdown (``VectorIndex.explain``).
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, a bounded ring of
  per-query cost summaries with a logical slow-query threshold.
* :mod:`repro.obs.health` — :class:`HealthSampler` /
  :class:`HealthReport`, structural index gauges (MPE drift, tombstones,
  delta growth, WAL backlog) with advisory thresholds.

Instrumented call sites default to :data:`NULL_TRACER`, a shared no-op, so
runs without a tracer pay only attribute lookups and stay bit-identical.
Multi-process serving stitches into one trace: the router sends its
``trace_id`` with each request, every shard worker records under a tracer
stamped with it, and :meth:`Tracer.adopt_spans` grafts the workers' spans
back under the router's scatter span.
"""

from .explain import QueryExplain, explain_from_records, explain_from_tracer
from .flight import FlightRecorder, logical_cost
from .health import HealthReport, HealthSampler, drift_scores
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    ensure_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "HealthSampler",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QueryExplain",
    "Span",
    "Tracer",
    "ensure_tracer",
    "drift_scores",
    "explain_from_records",
    "explain_from_tracer",
    "logical_cost",
]
