"""Operation traces: generation, (de)serialization, and replay.

YCSB's closed-loop generators cover the standard mixes; traces cover
everything else — production-like streams with bursts, diurnal phases, or
hand-crafted adversarial patterns.  A trace is a list of timestamped
:class:`TraceOp` records that can be saved to a compact text format,
inspected, and replayed open-loop against any DSHM system's KV store.

Open-loop replay (issue at the trace's timestamps, don't wait for the
previous op) is what exposes queueing collapse; the closed-loop YCSB runner
can never drive a system past saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, List, Optional

from repro.workloads.zipf import ScrambledZipfianGenerator, UniformGenerator

#: Trace op kinds (a trace is data-plane only: no allocation ops).
KINDS = ("read", "write")


class TraceError(Exception):
    """Malformed trace record or replay misuse."""


@dataclass(frozen=True)
class TraceOp:
    """One trace record."""

    at_ns: int
    kind: str
    key: int
    size: int = 0  # writes: payload size; reads: 0 = whole record

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise TraceError(f"unknown trace op kind {self.kind!r}")
        if self.at_ns < 0 or self.key < 0 or self.size < 0:
            raise TraceError("trace fields must be non-negative")

    def encode(self) -> str:
        return f"{self.at_ns} {self.kind} {self.key} {self.size}"

    @classmethod
    def decode(cls, line: str) -> "TraceOp":
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"bad trace line: {line!r}")
        return cls(at_ns=int(parts[0]), kind=parts[1],
                   key=int(parts[2]), size=int(parts[3]))


def dump_trace(ops: Iterable[TraceOp]) -> str:
    """Serialize a trace to its text form (one op per line)."""
    return "\n".join(op.encode() for op in ops)


def load_trace(text: str) -> List[TraceOp]:
    """Parse a trace; validates monotone timestamps."""
    ops = [TraceOp.decode(line) for line in text.splitlines() if line.strip()]
    for a, b in zip(ops, ops[1:]):
        if b.at_ns < a.at_ns:
            raise TraceError(f"timestamps go backwards at t={b.at_ns}")
    return ops


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
def generate_trace(
    rng,
    duration_ns: int,
    mean_interarrival_ns: int,
    record_count: int,
    read_fraction: float = 0.9,
    value_size: int = 1024,
    distribution: str = "zipfian",
    zipf_theta: float = 0.99,
    burst_every_ns: Optional[int] = None,
    burst_ops: int = 0,
) -> List[TraceOp]:
    """A Poisson-ish open-loop trace, optionally with periodic bursts.

    Arrivals are exponential with the given mean; every ``burst_every_ns``
    an extra back-to-back clump of ``burst_ops`` operations is injected —
    the pattern that stresses the proxy ring and the NVM drain.
    """
    if duration_ns <= 0 or mean_interarrival_ns <= 0 or record_count < 1:
        raise TraceError("duration, interarrival, and record count must be positive")
    if not 0.0 <= read_fraction <= 1.0:
        raise TraceError("read fraction must be in [0, 1]")
    if distribution == "zipfian":
        keygen = ScrambledZipfianGenerator(record_count, zipf_theta, rng)
    elif distribution == "uniform":
        keygen = UniformGenerator(record_count, rng)
    else:
        raise TraceError(f"unknown distribution {distribution!r}")

    ops: List[TraceOp] = []
    now = 0
    next_burst = burst_every_ns if burst_every_ns else None
    while now < duration_ns:
        now += max(1, round(rng.expovariate(1.0 / mean_interarrival_ns)))
        if next_burst is not None and now >= next_burst:
            for _ in range(burst_ops):
                ops.append(TraceOp(at_ns=next_burst, kind="write",
                                   key=keygen.next(), size=value_size))
            next_burst += burst_every_ns
        kind = "read" if rng.random() < read_fraction else "write"
        ops.append(TraceOp(at_ns=now, kind=kind, key=keygen.next(),
                           size=0 if kind == "read" else value_size))
    return ops


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
@dataclass
class ReplayResult:
    """Open-loop replay measurements."""

    issued: int
    elapsed_ns: int
    latency_by_kind: Dict[str, Dict[str, float]]
    max_outstanding: int


class TraceReplayer:
    """Replays a trace open-loop against one KV store.

    Operations are issued at their trace timestamps regardless of whether
    earlier ones finished, spread round-robin over the given clients.
    """

    def __init__(self, clients: List, store, value_size: int = 1024):
        if not clients:
            raise TraceError("need at least one client")
        self.clients = clients
        self.store = store
        self.value_size = value_size

    def replay(self, ops: List[TraceOp]) -> Generator[Any, Any, ReplayResult]:
        from repro.sim.stats import Histogram

        sim = self.clients[0].sim
        start = sim.now
        hists = {kind: Histogram(f"trace.{kind}") for kind in KINDS}
        state = {"outstanding": 0, "peak": 0}
        procs = []

        def one_op(op: TraceOp, client):
            state["outstanding"] += 1
            state["peak"] = max(state["peak"], state["outstanding"])
            t0 = sim.now
            try:
                if op.kind == "read":
                    yield from self.store.get(client, op.key)
                else:
                    yield from self.store.put(
                        client, op.key, bytes([op.key % 256]) * self.value_size)
                hists[op.kind].record(sim.now - t0)
            finally:
                state["outstanding"] -= 1

        def dispatcher(sim):
            for i, op in enumerate(ops):
                due = start + op.at_ns
                if due > sim.now:
                    yield due - sim.now
                procs.append(sim.spawn(one_op(op, self.clients[i % len(self.clients)]),
                                       name="trace.op"))
            if procs:
                yield sim.all_of(procs)

        main = sim.spawn(dispatcher(sim), name="trace.dispatch")
        yield main
        return ReplayResult(
            issued=len(ops),
            elapsed_ns=sim.now - start,
            latency_by_kind={k: h.snapshot() for k, h in hists.items() if h.count},
            max_outstanding=state["peak"],
        )
