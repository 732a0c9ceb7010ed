"""Exporters: span logs, event timelines and metrics in tool-friendly formats.

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON object format.
  Open the file in `Perfetto <https://ui.perfetto.dev>`_ (or
  ``chrome://tracing``) and every client, server, and master gets its own
  named thread track with the op/phase spans nested by time.  Virtual
  nanoseconds map to trace microseconds (the unit ``trace_event`` expects),
  so a 2.3 µs read renders as 2.3 units on the timeline.  Instant events
  show as markers on the emitting node's track.
* :func:`timeline` — the recorder's instant events as text, one line per
  event in time order (the fault timeline ``chaos --dump-trace`` prints).
* :func:`spans_jsonl` — one JSON object per span, for ad-hoc analysis
  (``jq``, pandas) without a trace viewer.
* :func:`prometheus_text` — the :class:`~repro.sim.stats.MetricRegistry`
  rendered in the Prometheus text exposition format (counters →
  ``_total``/``_sum``, histograms → quantile summaries, time-weighted
  levels → gauges).
* :func:`registry_snapshot` — the whole registry as one versioned plain
  dict (``schema`` pinned by tests), the machine-readable sibling of
  ``GengarPool.metrics_snapshot()``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import Span, SpanRecorder
    from repro.sim.stats import MetricRegistry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "chrome_trace",
    "timeline",
    "spans_jsonl",
    "prometheus_text",
    "registry_snapshot",
]

#: Version of the :func:`registry_snapshot` dict shape.
SNAPSHOT_SCHEMA = 1


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def _track_order(tracks: Iterable[str]) -> List[str]:
    """Stable display order: master first, then servers, then clients,
    then anything else — each group name-sorted."""

    def rank(track: str) -> Tuple[int, str]:
        if track.startswith("master"):
            return (0, track)
        if track.startswith("server"):
            return (1, track)
        if track.startswith("client"):
            return (2, track)
        return (3, track)

    return sorted(tracks, key=rank)


def chrome_trace(recorder: "SpanRecorder", process_name: str = "gengar-pool",
                 pid: int = 1) -> Dict[str, Any]:
    """Render the recorder's span log as a ``trace_event`` JSON object.

    Every span becomes a complete ("X") event and every instant event a
    thread-scoped instant ("i") whose ``cat`` is the event's category; tracks
    become named threads of one process.  ``ts``/``dur`` are floats in
    microseconds (virtual ns / 1000), per the trace_event contract.
    """
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    tids: Dict[str, int] = {}
    for index, track in enumerate(_track_order(recorder.tracks()), start=1):
        tids[track] = index
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": index,
            "args": {"name": track},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": pid, "tid": index,
            "args": {"sort_index": index},
        })
    for span in recorder.spans:
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": pid,
            "tid": tids[span.track],
        }
        args: Dict[str, Any] = dict(span.fields) if span.fields else {}
        if span.op:
            args["op"] = span.op
        if args:
            event["args"] = args
        events.append(event)
    for instant in recorder.events:
        event = {
            "name": instant.message,
            "cat": instant.category,
            "ph": "i",
            "s": "t",
            "ts": instant.time_ns / 1000.0,
            "pid": pid,
            "tid": tids[instant.track],
        }
        if instant.fields:
            event["args"] = dict(instant.fields)
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "clock": "virtual-ns (exported as us)",
            "spans_logged": len(recorder.spans),
            "spans_dropped": recorder.dropped,
            "events_logged": len(recorder.events),
            "events_dropped": recorder.events_dropped,
        },
    }


def timeline(recorder: "SpanRecorder", limit: int = 100,
             categories: Optional[Iterable[str]] = None) -> str:
    """The most recent ``limit`` instant events as text, oldest first,
    optionally restricted to ``categories``."""
    wanted = None if categories is None else set(categories)
    tail = [e for e in recorder.events
            if wanted is None or e.category in wanted][-limit:]
    lines = [e.render() for e in tail]
    if recorder.events_dropped:
        lines.append(f"... ({recorder.events_dropped} earlier events dropped)")
    return "\n".join(lines)


def spans_jsonl(recorder: "SpanRecorder") -> str:
    """The span log as newline-delimited JSON (one object per span)."""
    lines = [json.dumps(span.to_dict(), sort_keys=True)
             for span in recorder.spans]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    safe = "".join(c if (c.isalnum() or c == "_") else "_" for c in name)
    return f"{prefix}_{safe}" if prefix else safe


def _fmt(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: Quantiles rendered for each histogram (label, percentile).
_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0),
)


def prometheus_text(metrics: "MetricRegistry", prefix: str = "gengar") -> str:
    """Render every metric in the registry as Prometheus exposition text.

    * ``Counter`` → ``<name>_total`` (event count) and ``<name>_sum`` (the
      value sum, for counters that carry one).
    * ``Histogram`` → a summary: ``<name>{quantile="..."}`` plus
      ``<name>_count`` / ``<name>_sum``.
    * ``TimeWeightedStat`` → gauges ``<name>`` (current level),
      ``<name>_avg`` (time-weighted average) and ``<name>_peak``.
    """
    lines: List[str] = []
    for name in sorted(metrics._counters):
        c = metrics._counters[name]
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname}_total counter")
        lines.append(f"{pname}_total {_fmt(float(c.count))}")
        lines.append(f"{pname}_sum {_fmt(float(c.total))}")
    for name in sorted(metrics._histograms):
        h = metrics._histograms[name]
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} summary")
        for label, p in _QUANTILES:
            lines.append(f'{pname}{{quantile="{label}"}} '
                         f"{_fmt(float(h.percentile(p)))}")
        lines.append(f"{pname}_count {_fmt(float(h.count))}")
        lines.append(f"{pname}_sum {_fmt(float(h.total))}")
    for name in sorted(metrics._levels):
        s = metrics._levels[name]
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(float(s.level))}")
        lines.append(f"{pname}_avg {_fmt(float(s.time_average()))}")
        lines.append(f"{pname}_peak {_fmt(float(s.peak))}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Versioned registry snapshot
# ----------------------------------------------------------------------
def registry_snapshot(metrics: "MetricRegistry") -> Dict[str, Any]:
    """The full registry as one plain, versioned dict.

    Shape (``schema`` = :data:`SNAPSHOT_SCHEMA`, pinned by golden tests)::

        {"schema": 1, "virtual_time_ns": ...,
         "counters":   {name: {"count": int, "total": float}},
         "histograms": {name: {count/mean/min/max/p50/p90/p99}},
         "levels":     {name: {"level": .., "avg": .., "peak": ..}}}
    """
    return {
        "schema": SNAPSHOT_SCHEMA,
        "virtual_time_ns": metrics.sim.now,
        "counters": {
            name: {"count": c.count, "total": c.total}
            for name, c in sorted(metrics._counters.items())
        },
        "histograms": {
            name: h.snapshot()
            for name, h in sorted(metrics._histograms.items())
        },
        "levels": {
            name: {"level": s.level, "avg": s.time_average(), "peak": s.peak}
            for name, s in sorted(metrics._levels.items())
        },
    }
