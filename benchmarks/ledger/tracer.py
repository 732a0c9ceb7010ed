"""Per-layer measurement from outside the program.

Three sources only:

(a) :func:`profile_layers` buckets a ``cProfile`` run's self time and call
    counts by source path into the repo's packages;
(b) :func:`published` reads what the program already publishes
    (``sim.metrics`` through ``obs.registry_snapshot``);
(c) :class:`SpanTracer` installs ``obs`` spans plus benchmark-owned wrappers
    around the public entry points of the hardware, verbs and RPC layers.
    The wrappers read ``sim.now`` and nothing else: they create no events, so
    a traced run reproduces the untraced virtual time and event count.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from metrics import LAYERS

from repro import obs
from repro.hardware.memory import MemoryDevice
from repro.hardware.network import Fabric
from repro.hardware.nic import Nic
from repro.rdma.qp import QueuePair
from repro.rdma.rpc import RpcClient

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
_CORE_MODULES = {
    "client.py": "core.client", "consistency.py": "core.client",
    "server.py": "core.server",
    "master.py": "core.master", "directory.py": "core.master",
    "allocator.py": "core.master", "hotness.py": "core.master",
}


def layer_of(filename: str) -> str:
    """The layer that owns a source file (``other`` for stdlib/builtins)."""
    at = filename.rfind("/repro/")
    if at < 0:
        return "apps" if filename.startswith(_LEDGER_DIR) else "other"
    package, _, module = filename[at + len("/repro/"):].partition("/")
    if package == "sim":
        return "sim"
    if package in ("hardware", "cluster"):
        return "hardware"
    if package == "rdma":
        return "rdma.rpc" if module == "rpc.py" else "rdma.verbs"
    if package == "core":
        return _CORE_MODULES.get(module, "other")
    if package == "apps":
        return "apps"
    return "other"


def profile_layers(profile) -> Dict[str, Any]:
    """Self time and call count per layer from a finished ``cProfile``."""
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for entry in profile.getstats():
        code = entry.code
        layer = "other" if isinstance(code, str) else layer_of(code.co_filename)
        seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    return {"seconds": seconds, "calls": calls,
            "total_calls": sum(calls.values())}


# ----------------------------------------------------------------------
# (b) what the program publishes
# ----------------------------------------------------------------------
def published(sim) -> Dict[str, Any]:
    """A snapshot of the metric registry (counters, histograms, levels)."""
    return obs.registry_snapshot(sim.metrics)


def counter_delta(before: dict, after: dict, suffix: str,
                  field: str = "count") -> float:
    """Growth of every counter whose name is or ends with ``suffix``."""
    total = 0.0
    old = before["counters"]
    for name, value in after["counters"].items():
        if name == suffix or name.endswith("." + suffix):
            total += value[field] - old.get(name, {field: 0})[field]
    return total


def histogram_delta_mean(before: dict, after: dict, name: str) -> float:
    new = after["histograms"].get(name)
    if not new:
        return 0.0
    old = before["histograms"].get(name, {"count": 0, "mean": 0.0})
    count = new["count"] - old["count"]
    if count <= 0:
        return 0.0
    return (new["mean"] * new["count"] - old["mean"] * old["count"]) / count


def level_peak(after: dict, suffix: str) -> float:
    return max((v["peak"] for n, v in after["levels"].items()
                if n.endswith("." + suffix)), default=0.0)


# ----------------------------------------------------------------------
# (c) spans
# ----------------------------------------------------------------------
def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    covered = 0
    end = -1
    for lo, hi in sorted(intervals):
        if lo > end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


class SpanTracer:
    """Spans at every layer boundary for one traced pass.

    Generator entry points (``MemoryDevice.read/write``, ``Nic.tx_process/
    rx_process``, ``Fabric.unicast``, ``RpcClient.call``) are wrapped with a
    ``yield from`` shim that stamps start and end and the model's own
    uncontended closed form; ``QueuePair.post_send/post_send_many`` get a
    plain wrapper that stamps the post time and keeps the returned
    completion events, whose ``WorkCompletion.timestamp`` is read afterwards.
    """

    def __init__(self, sim, capacity: int = 4_000_000):
        self.sim = sim
        self.recorder = obs.install(sim, capacity=capacity)
        if self.recorder is None:
            raise RuntimeError("repro.obs is disabled; cannot trace")
        self.doorbells = 0
        self._posts: List[Tuple[int, str, Any]] = []
        self._credit_base: Dict[int, Tuple[Any, int]] = {}
        self._saved: List[Tuple[type, str, Any]] = []

    # -- install / uninstall ------------------------------------------
    def install(self) -> None:
        record = self.recorder.record
        tracer = self

        def mem_read(orig):
            def read(dev, offset, nbytes):
                t0 = dev.sim.now
                data = yield from orig(dev, offset, nbytes)
                record(dev.name, "hw.mem.read", t0,
                       model=dev.read_service_time(nbytes), bytes=nbytes)
                return data
            return read

        def mem_write(orig):
            def write(dev, offset, payload):
                t0 = dev.sim.now
                yield from orig(dev, offset, payload)
                record(dev.name, "hw.mem.write", t0,
                       model=dev.write_service_time(len(payload)),
                       bytes=len(payload))
            return write

        def nic_stage(name):
            def wrap(orig):
                def stage(nic):
                    t0 = nic.sim.now
                    yield from orig(nic)
                    record(nic.name, name, t0, model=nic.spec.processing_ns)
                return stage
            return wrap

        def unicast(orig):
            def send(fabric, src, dst, nbytes):
                t0 = fabric.sim.now
                yield from orig(fabric, src, dst, nbytes)
                record(src + ".egress", "hw.fabric", t0, dst=dst,
                       model=fabric.min_latency(nbytes),
                       wire=fabric.wire_time(nbytes))
            return send

        def rpc_call(orig):
            def call(rpc, method, request=None):
                if id(rpc) not in tracer._credit_base:
                    stats = rpc.credit_stats()
                    tracer._credit_base[id(rpc)] = (
                        rpc, stats["stalls"] if stats else 0)
                t0 = rpc.sim.now
                result = yield from orig(rpc, method, request)
                record(rpc.name, "rpccall." + method, t0)
                return result
            return call

        def post_send(orig):
            def post(qp, wr):
                done = orig(qp, wr)
                tracer.doorbells += 1
                tracer._posts.append((qp.sim.now, qp.name, done))
                return done
            return post

        def post_send_many(orig):
            def post(qp, wrs):
                events = orig(qp, wrs)
                tracer.doorbells += 1
                now = qp.sim.now
                tracer._posts.extend((now, qp.name, ev) for ev in events)
                return events
            return post

        for cls, attr, wrap in (
                (MemoryDevice, "read", mem_read),
                (MemoryDevice, "write", mem_write),
                (Nic, "tx_process", nic_stage("hw.nic.tx")),
                (Nic, "rx_process", nic_stage("hw.nic.rx")),
                (Fabric, "unicast", unicast),
                (RpcClient, "call", rpc_call),
                (QueuePair, "post_send", post_send),
                (QueuePair, "post_send_many", post_send_many)):
            orig = getattr(cls, attr)
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, wrap(orig))

    def uninstall(self) -> None:
        for cls, attr, orig in reversed(self._saved):
            setattr(cls, attr, orig)
        self._saved.clear()
        self.sim.spans = None

    # -- reduction ----------------------------------------------------
    def reduce(self, pool, elapsed_ns: int) -> Dict[str, float]:
        """Sums and counts over the span log (raw; the caller divides)."""
        record = self.recorder.record
        wrs = failed_wrs = wr_ns = 0
        for t0, qp_name, done in self._posts:
            if not done.triggered:
                continue
            wc = done.value
            wrs += 1
            wr_ns += wc.timestamp - t0
            if not wc.ok:
                failed_wrs += 1
            record(qp_name, "verbs.wr", t0, end_ns=wc.timestamp)

        server_nodes = {s.node.name for s in pool.servers.values()}
        master_rpcs = {m.rpc.name for m in pool.masters}
        out: Dict[str, float] = {
            "wrs": wrs, "failed_wrs": failed_wrs, "wr_ns": wr_ns,
            "doorbells": self.doorbells,
            "credit_waits": sum(
                (rpc.credit_stats() or {"stalls": 0})["stalls"] - base
                for rpc, base in self._credit_base.values()),
        }
        sums: Dict[str, List[float]] = {}  # key -> [count, dur, model]

        def add(key: str, dur: int, model: int = 0) -> None:
            cell = sums.get(key)
            if cell is None:
                sums[key] = [1, dur, model]
            else:
                cell[0] += 1
                cell[1] += dur
                cell[2] += model

        nic_busy: Dict[str, list] = {}
        port_busy: Dict[str, int] = {}
        ops: Dict[int, Tuple[int, int]] = {}
        phases: Dict[int, list] = {}
        for span in self.recorder.spans:
            name = span.name
            dur = span.end_ns - span.start_ns
            if name.startswith("hw.mem."):
                node, _, kind = span.track.rpartition(".")
                if kind == "nvm" or node in server_nodes:
                    add(f"{kind}.{name[7:]}", dur, span.fields["model"])
            elif name.startswith("hw.nic."):
                add(name, dur, span.fields["model"])
                nic_busy.setdefault(span.track, []).append(
                    (span.start_ns, span.end_ns))
            elif name == "hw.fabric":
                fields = span.fields
                add(name, dur, fields["model"])
                for port in (span.track, fields["dst"] + ".ingress"):
                    port_busy[port] = port_busy.get(port, 0) + fields["wire"]
            elif name.startswith("rpccall."):
                add("rpccall", dur)
            elif name.startswith("rpc."):
                if span.track in master_rpcs:
                    add("master.rpc", dur)
            elif name.startswith("op."):
                ops[span.op] = (span.start_ns, span.end_ns)
            elif name.startswith("phase."):
                add(name, dur)
                if span.op:
                    phases.setdefault(span.op, []).append(
                        (span.start_ns, span.end_ns))
            elif name in ("srv.drain", "master.plan_epoch"):
                add(name, dur)

        self_ns = 0
        for op, (lo, hi) in ops.items():
            children = [(max(lo, a), min(hi, b))
                        for a, b in phases.get(op, ()) if b > lo and a < hi]
            self_ns += (hi - lo) - _union_ns(children)
        out["client_self_ns"] = self_ns
        out["nic_max_util"] = max(
            (_union_ns(iv) for iv in nic_busy.values()), default=0) / elapsed_ns
        out["port_max_util"] = max(port_busy.values(), default=0) / elapsed_ns
        for key, (count, dur, model) in sums.items():
            out[key + ".count"] = count
            out[key + ".ns"] = dur
            out[key + ".model_ns"] = model
        out["spans"] = self.recorder.recorded
        return out
