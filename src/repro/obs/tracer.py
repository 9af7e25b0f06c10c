"""Structured tracing with nested spans and per-span cost deltas.

Every instrumented code path in the reproduction threads a tracer through
its hot loops::

    tracer = Tracer(counters=index.counters)
    with tracer.span("knn.expand_radius", radius=r) as span:
        ...                      # work that reads pages / computes distances
        span.set(candidates=n)   # late attributes

A span records its wall-clock duration, a monotonically increasing start
index (the event log order), its parent/depth (spans nest via a stack), any
keyword attributes, and — when a :class:`~repro.storage.metrics.CostCounters`
is attached — the *delta* of a :class:`~repro.storage.metrics.CostSnapshot`
taken around the block, so each span knows its own page reads, distance
flops and key comparisons, not just the whole query's.

Tracing is strictly opt-in and zero-overhead by default: call sites take a
``tracer`` argument that defaults to :data:`NULL_TRACER`, whose ``span`` /
``counter`` / ``gauge`` / ``histogram`` methods return shared no-op objects.
A disabled run therefore pays only attribute lookups — it must never change
counters, RNG state, or results (the test suite asserts bit-identical query
costs with and without a tracer).

Tracers are not thread-safe; use one per worker.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..storage.metrics import CostCounters, CostSnapshot
from .metrics import (
    MetricsRegistry,
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ensure_tracer",
]

#: Per-process trace-id sequence; combined with the pid so ids minted in a
#: forked worker can never collide with the coordinator's.
_TRACE_SEQ = itertools.count(1)


def _new_trace_id() -> str:
    return f"{os.getpid():x}-{next(_TRACE_SEQ):x}"


@dataclass
class Span:
    """One timed, cost-accounted region of the event log.

    ``index`` is the span's position in tracer start order (the monotonic
    event log); ``parent`` is the index of the enclosing span or ``-1`` at
    the top level.  ``cost`` is the counter delta over the block, or ``None``
    when the span ran without counters attached.
    """

    name: str
    index: int
    parent: int
    depth: int
    start_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    duration_s: float = 0.0
    cost: Optional[CostSnapshot] = None
    _snapshot_before: Optional[CostSnapshot] = field(
        default=None, repr=False
    )

    def set(self, **attributes: Any) -> "Span":
        """Attach late attributes (values known only mid-block)."""
        self.attributes.update(attributes)
        return self


class _SpanContext:
    """Context manager that opens/closes one span on its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close_span(self._span)


class Tracer:
    """Collects spans (in start order) and owns a metrics registry.

    Parameters
    ----------
    counters:
        Default cost counters snapshotted around every span.  Individual
        ``span()`` calls can override with their own ``counters=`` (the
        index instrumentation does, so one tracer can follow a model fit
        and a query batch that use different counter sets).
    metrics:
        Registry for named counters/gauges/histograms; a fresh one is
        created when omitted.
    """

    enabled = True

    def __init__(
        self,
        counters: Optional[CostCounters] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.counters = counters
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def span(
        self,
        name: str,
        counters: Optional[CostCounters] = None,
        **attributes: Any,
    ) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span(...) as s:``.

        The span is appended to :attr:`spans` immediately (start order =
        event-log order); its duration and cost delta are filled in when
        the block exits, even on exception.
        """
        active = counters if counters is not None else self.counters
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            index=len(self.spans),
            parent=parent.index if parent is not None else -1,
            depth=len(self._stack),
            start_s=time.perf_counter() - self._epoch,
            attributes=dict(attributes),
        )
        if active is not None:
            span._snapshot_before = active.snapshot()
            span._counters = active  # type: ignore[attr-defined]
        self.spans.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close_span(self, span: Span) -> None:
        span.duration_s = (
            time.perf_counter() - self._epoch - span.start_s
        )
        if span._snapshot_before is not None:
            counters: CostCounters = span._counters  # type: ignore[attr-defined]
            span.cost = counters.snapshot() - span._snapshot_before
            span._snapshot_before = None
            del span._counters  # type: ignore[attr-defined]
        # Exceptions may unwind several spans at once; pop everything the
        # failed block opened so the stack matches the closing span.
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break

    @property
    def active_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` between spans."""
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        """Forget every recorded span and metric, keeping the tracer
        attached (counters, identity) so long-lived callers — the bench
        runner between legs, a reused harness tracer between runs — can
        reuse one tracer without records leaking across runs.

        Clearing while a span is open would orphan it, so that raises.
        A fresh trace id is minted: the next run is a new trace.
        """
        if self._stack:
            raise RuntimeError(
                f"cannot clear while span {self._stack[-1].name!r} is open"
            )
        self.spans = []
        self.metrics.reset()
        self.trace_id = _new_trace_id()
        self._epoch = time.perf_counter()

    def adopt_spans(
        self,
        spans: Sequence[Span],
        parent: Optional[Span] = None,
        worker: Optional[int] = None,
    ) -> int:
        """Graft a worker tracer's (closed) spans into this trace.

        ``spans`` must be one tracer's complete span list in its event-log
        order: indices are rebased onto this tracer's log, local parent
        links are preserved, and roots (``parent == -1``) are re-parented
        under ``parent`` (or stay roots) with depths shifted accordingly.
        ``worker`` stamps a ``worker`` attribute on the adopted roots so a
        stitched trace keeps per-worker attribution.  Returns the number
        of spans adopted.
        """
        if not spans:
            return 0
        base = len(self.spans)
        local0 = spans[0].index  # worker logs start at 0; rebase from it
        parent_index = parent.index if parent is not None else -1
        parent_depth = parent.depth + 1 if parent is not None else 0
        for span in spans:
            span.index = span.index - local0 + base
            if span.parent == -1:
                span.parent = parent_index
                span.depth += parent_depth
                if worker is not None:
                    span.attributes.setdefault("worker", worker)
            else:
                span.parent = span.parent - local0 + base
                span.depth += parent_depth
            self.spans.append(span)
        return len(spans)

    # ------------------------------------------------------------------
    # metrics pass-through (uniform API with NullTracer)
    # ------------------------------------------------------------------

    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=None):
        return self.metrics.histogram(name, buckets=buckets)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write spans + metrics to a JSONL trace file; returns the record
        count.  (Delegates to :mod:`repro.obs.export`.)"""
        from .export import write_jsonl

        return write_jsonl(path, self)


class _NullSpan:
    """Shared, stateless no-op stand-in for :class:`Span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer: the default for every instrumented call site.

    All methods return shared singletons, so a disabled run costs only
    attribute lookups and empty method calls — no allocation, no timing,
    no counter snapshots.
    """

    enabled = False
    spans: List[Span] = []  # always empty; shared intentionally
    trace_id = "null"

    def span(self, name: str, counters=None, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def clear(self) -> None:
        return None

    def adopt_spans(self, spans, parent=None, worker=None) -> int:
        return 0

    def counter(self, name: str):
        return _NULL_COUNTER

    def gauge(self, name: str):
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=None):
        return _NULL_HISTOGRAM

    @property
    def active_span(self) -> None:
        return None

    def export_jsonl(self, path) -> int:
        return 0


NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional["Tracer"]) -> "Tracer":
    """Normalize an optional ``tracer`` argument to a usable tracer."""
    return tracer if tracer is not None else NULL_TRACER
