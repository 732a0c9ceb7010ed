"""repro.obs — the pool-wide observability layer.

Spans (:mod:`repro.obs.spans`) attribute every op's virtual nanoseconds to
typed protocol phases and instant events mark the protocol points between
them; exporters (:mod:`repro.obs.export`) turn the span log, the event ring
and the metric registry into Chrome ``trace_event`` JSON, JSONL, a text
timeline, Prometheus text, and a versioned snapshot dict.  See
``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    SNAPSHOT_SCHEMA,
    chrome_trace,
    prometheus_text,
    registry_snapshot,
    spans_jsonl,
    timeline,
)
from repro.obs.spans import Instant, Span, SpanRecorder, install

__all__ = [
    "SNAPSHOT_SCHEMA",
    "Instant",
    "Span",
    "SpanRecorder",
    "chrome_trace",
    "install",
    "prometheus_text",
    "registry_snapshot",
    "spans_jsonl",
    "timeline",
]
