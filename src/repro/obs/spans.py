"""Op spans: phase-attributed latency capture for every pool operation.

The data path is instrumented with *spans* — ``(track, name, start_ns,
end_ns)`` intervals recorded at the end of each protocol phase.  A span
recorder attached to a simulator (``sim.spans = SpanRecorder(sim)``) turns
every client op into a parent span with typed child phases (meta-cache
lookup, RDMA verb post→completion, proxy staging, degraded fallback, retry
waits), and the server/master sides join in with drain, promotion-copy, and
RPC-service spans.  The recorder feeds two sinks at once:

* **per-phase histograms** in ``sim.metrics`` (``span.<name>``), so phase
  latency distributions ride the normal metrics/exporter path, and
* an optional bounded **span log** for structured export — Chrome
  ``trace_event`` JSON (Perfetto / ``chrome://tracing``) or JSONL (see
  :mod:`repro.obs.export`).

Zero-cost-when-off contract
---------------------------

``sim.spans`` is ``None`` by default, and every instrumented call site
checks that *before* constructing a span, formatting a field or an event
message, or even reading the clock a second time.  The disabled hot path
therefore pays one attribute load and one ``is None`` test per op — no
allocations, no extra simulated events — which the explode-on-touch and
virtual-time guards in ``tests/obs/test_overhead.py`` enforce.

Span taxonomy (``docs/OBSERVABILITY.md`` has the full contract):

``op.*``
    Client-visible operations: ``op.gread``, ``op.gread_many``,
    ``op.gwrite``, ``op.gwrite_batch``, ``op.gsync``, ``op.glock``,
    ``op.gunlock``.  Each carries a per-client ``op`` id that its child
    phases repeat.
``phase.*``
    Protocol phases inside an op: ``phase.meta_lookup``,
    ``phase.cache_read`` (hit or tag-miss probe), ``phase.nvm_read``,
    ``phase.degraded_read``, ``phase.proxy_stage``, ``phase.batch_stage``,
    ``phase.direct_write``, ``phase.degraded_fallback``,
    ``phase.drain_wait``, ``phase.retry_wait``, ``phase.pipeline_wait``
    (a batched op draining its outstanding reads).
``srv.*``
    Server background work: ``srv.drain`` (one staged frame applied to
    NVM/cache), ``srv.promote_copy`` (NVM→DRAM promotion copy),
    ``srv.read_combine`` (one combined device transfer serving a group of
    adjacent doorbell-batched reads).
``rpc.*``
    Control-plane service time, one span per handled request
    (``rpc.gmalloc``, ``rpc.lookup``, ``rpc.report``, ``rpc.attach``, …)
    on the serving node's track.
``master.*``
    Master housekeeping: ``master.plan_epoch`` (one placement epoch).

Instant events
--------------

Protocol points that have no duration — an injected fault, a retry, a fenced
heartbeat, a claimed term — are *events*: :meth:`SpanRecorder.event` appends
``(time, track, category, message, fields)`` to a bounded ring kept apart
from the span log (oldest dropped first, counted in
:attr:`SpanRecorder.events_dropped`).  Events feed neither
:attr:`SpanRecorder.recorded` nor the ``span.*`` histograms.  Call sites sit
behind the same ``sim.spans is not None`` guard as spans.
:func:`repro.obs.timeline` renders them as text and
:func:`repro.obs.chrome_trace` as instants on the emitting node's track;
``docs/OBSERVABILITY.md`` lists the categories.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["Instant", "Span", "SpanRecorder", "install"]


class Span:
    """One closed interval of attributed work on a track."""

    __slots__ = ("track", "name", "start_ns", "end_ns", "op", "fields")

    def __init__(self, track: str, name: str, start_ns: int, end_ns: int,
                 op: int = 0, fields: Optional[Dict[str, Any]] = None):
        self.track = track
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.op = op
        self.fields = fields

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL export row)."""
        d: Dict[str, Any] = {
            "track": self.track,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.op:
            d["op"] = self.op
        if self.fields:
            d["fields"] = self.fields
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name} on {self.track} "
                f"[{self.start_ns}..{self.end_ns}]ns>")


class Instant:
    """One protocol event: a point in virtual time on a track."""

    __slots__ = ("time_ns", "track", "category", "message", "fields")

    def __init__(self, time_ns: int, track: str, category: str, message: str,
                 fields: Dict[str, Any]):
        self.time_ns = time_ns
        self.track = track
        self.category = category
        self.message = message
        self.fields = fields

    def render(self) -> str:
        """One timeline line: time, category, track, message, fields."""
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return (f"[{self.time_ns / 1000:10.2f} us] {self.category:9s} "
                f"{self.track}: {self.message}"
                + (f" ({extras})" if extras else ""))


class SpanRecorder:
    """Collects spans and instant events for one simulator run.

    Recording is *end-driven*: instrumented code captures ``start = sim.now``
    (guarded by the enabled check), does the work, then calls :meth:`record`
    once the phase closes.  There is no open-span bookkeeping to corrupt when
    generators interleave, and a phase that raises simply never records.

    The span log is bounded by ``capacity``; beyond it, spans still feed the
    per-phase histograms but the structured log counts them in
    :attr:`dropped` instead of growing without bound.  Instant events go to
    their own ring of ``event_capacity`` entries, oldest dropped first; with
    ``keep_spans=False, histograms=False`` the recorder keeps events only.
    """

    def __init__(self, sim: "Simulator", capacity: int = 250_000,
                 keep_spans: bool = True, histograms: bool = True,
                 event_capacity: int = 50_000):
        if capacity < 1 or event_capacity < 1:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.keep_spans = keep_spans
        self.histograms = histograms
        self.spans: List[Span] = []
        self.recorded = 0
        self.dropped = 0
        self.events: Deque[Instant] = deque(maxlen=event_capacity)
        self.events_dropped = 0
        self._next_op = 0
        self._metrics = sim.metrics

    # ------------------------------------------------------------------
    def next_op(self) -> int:
        """Mint a correlation id for one client op (child phases repeat it)."""
        self._next_op += 1
        return self._next_op

    def record(self, track: str, name: str, start_ns: int,
               end_ns: Optional[int] = None, op: int = 0,
               **fields: Any) -> None:
        """Close one span; ``end_ns`` defaults to the current instant."""
        end = self.sim.now if end_ns is None else end_ns
        self.recorded += 1
        if self.histograms:
            self._metrics.histogram("span." + name).record(end - start_ns)
        if not self.keep_spans:
            return
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append(Span(track, name, start_ns, end, op,
                               fields or None))

    def event(self, track: str, category: str, message: str,
              **fields: Any) -> None:
        """Note one instant at the current time on ``track``."""
        if len(self.events) == self.events.maxlen:
            self.events_dropped += 1
        self.events.append(
            Instant(self.sim.now, track, category, message, fields))

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        """Logged spans with exactly this name."""
        return [s for s in self.spans if s.name == name]

    def names(self) -> Dict[str, int]:
        """Span-name → logged-count summary (sorted for stable rendering)."""
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return dict(sorted(out.items()))

    def tracks(self) -> List[str]:
        """Every track that logged a span or an event, spans' tracks first,
        each in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.track, None)
        for e in self.events:
            seen.setdefault(e.track, None)
        return list(seen)

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self.events.clear()
        self.events_dropped = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterable[Span]:
        return iter(self.spans)


def install(sim: "Simulator", capacity: int = 250_000,
            keep_spans: bool = True) -> SpanRecorder:
    """Attach a fresh recorder to ``sim`` and return it."""
    recorder = SpanRecorder(sim, capacity=capacity, keep_spans=keep_spans)
    sim.spans = recorder
    return recorder
