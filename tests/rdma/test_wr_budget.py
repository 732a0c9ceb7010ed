"""What one message costs: a per-WR and a per-RPC budget in tier-1.

One isolated one-sided verb on the two-node rig of ``repro.bench.perf``
(idle NICs, idle fabric, idle DRAM) walks every stage of the hardware
pipeline exactly once, and one echo RPC on the same rig is two SENDs with
their receive, ring and completion-queue hand-offs — so the cost of each is
a constant of the code: the virtual time and the dispatch count hold on any
interpreter, the interpreter-call count on CPython 3.11 (the count depends
on how the interpreter reports generator resumes and builtins to
``cProfile``).  A change that adds a wait, a generator frame or a helper
call to the verb path or the control path fails here in a second instead of
waiting for a ledger run.

Each budget below is the count measured on the code as it stands, and the
test allows it plus 3 %: 112 for the READ and 114 for the WRITE (both
measured since the kernel queues the running instant's entries on a FIFO
and later ones on one heap, with no per-instant bucket; 149 and 151 before
that, since the NIC's token bucket refills inline on its pass path; 151
and 153 before that, since the memory and wire service times are computed
inline and a response leg crosses the flat fabric in ``Fabric.unicast``'s
own frame; 160 and 162 before that, since every stage costs its yields and little more: counters
bumped in place, bounds checks inlined on their pass path, the payload
gather and the SEND's receive step in the verb's own frame; 185 and 191
before that, since a timed hold's end is queued when its slot is taken and
a process that finishes at the tail of its instant wakes its one waiter in
place; 195 and 201 before that, with the device latency histograms gone;
202 and 208 before that, since the send gate stopped covering the wire
flight; 200 and 206 before it, 217 and 223 while a WR had a completion
event beside its process and a send CQ, 280 and 287 with ``Request`` events
before that; the WR itself is built outside the count) and 328 for the
echo RPC (401 with the per-instant buckets, 405 before the inline refill, 445 while a serve loop took each request off the receive CQ and
the handler took its reply slot through a ``Store`` wait, 447 while every
``WorkRequest`` ran a ``__post_init__`` hook,
523 before the in-place counters, 547 before the hold change, 551 with
the device histograms, 557 while a credit gate sat in front of the
client's receive window, 634 while every ``Store`` hand-off was a pair of
events).  The hold change took the
dispatches from 11 to 10 for each verb and from 31 to 27 for the echo RPC;
consuming a request in the step that delivers its completion took the echo
RPC from 27 to 24: the serve loop's wake-up, its receive-slot take and the
handler's reply-slot take were dispatches of no hardware stage.
Re-measure and lower them when a change lowers the count; a budget that
fails names the most-called functions.

The same three messages pin what the cost must not buy back: the registry
deltas of every per-message counter (fabric, NICs, receive CQs, devices,
RPC requests), whatever way a stage increments them, and how often each
entry point the ledger's span pass wraps (``benchmarks/ledger/tracer.py``)
is entered, so that no inlining silently drops a traced layer.
"""

import ast
import cProfile
import os
import pstats
import sys

import pytest

from repro.bench.perf import _echo_rpc_rig, _two_node_rig
from repro.hardware.memory import MemoryDevice
from repro.hardware.network import Fabric
from repro.hardware.nic import Nic
from repro.obs import registry_snapshot
from repro.rdma import Opcode, WorkRequest
from repro.rdma.mr import AccessFlags
from repro.rdma.qp import QueuePair
from repro.rdma.rpc import RpcClient

_LEDGER_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                              "benchmarks", "ledger", "tracer.py")


def _one_isolated_wr(opcode, length, probe_for):
    """Post one WR on a warmed, idle rig with a completion callback; the
    probe sees the stretch from post to quiescence.  Returns its
    (dispatches, virtual ns)."""
    sim, (ep_a, mem_a, qp_a), (ep_b, mem_b, _qp_b) = _two_node_rig()
    local_mr = ep_a.register_mr(mem_a, 0, 1 << 20, access=AccessFlags.ALL, name="l")
    remote_mr = ep_b.register_mr(mem_b, 0, 1 << 20, access=AccessFlags.ALL, name="r")

    def wr():
        return WorkRequest(opcode=opcode, remote_rkey=remote_mr.rkey, remote_offset=0,
                           local_mr=local_mr, local_offset=0, length=length, wr_id=1)

    qp_a.post_send(wr())  # warm-up: lazy set-up stays out of the count
    sim.run()
    start, dispatched = sim.now, sim.total_dispatched
    completions = []
    request = wr()
    probe = probe_for(sim)
    probe.enable()
    qp_a.post_send(request).add_callback(completions.append)
    sim.run()
    probe.disable()
    assert completions and completions[0].value.status.name == "SUCCESS"
    return sim.total_dispatched - dispatched, sim.now - start


def _one_echo_rpc(probe_for):
    """One echo call on a warmed, idle rig — client and server of
    ``bench_rpc``, the server's receive posted; the probe sees
    the stretch from spawning the caller to quiescence."""
    sim, client = _echo_rpc_rig()
    sim.run_until_complete(sim.spawn(client.call("echo", 0)))  # warm-up
    sim.run()
    start, dispatched = sim.now, sim.total_dispatched
    probe = probe_for(sim)
    probe.enable()
    call = sim.spawn(client.call("echo", 1))
    sim.run()
    probe.disable()
    assert call.value == 1
    return sim.total_dispatched - dispatched, sim.now - start


MESSAGES = {
    # what: how, dispatches, virtual ns, measured calls
    "read_128": (lambda probe_for: _one_isolated_wr(Opcode.RDMA_READ, 128, probe_for),
                 10, 1_995, 112),
    "write_1k": (lambda probe_for: _one_isolated_wr(Opcode.RDMA_WRITE, 1024, probe_for),
                 10, 2_514, 114),
    "rpc_echo": (_one_echo_rpc, 24, 2_941, 328),
}


def _top_calls(stats, n=12):
    """The ``n`` functions called most often, one ``count  where`` a line."""
    rows = sorted(((entry[1], pstats.func_std_string(func))
                   for func, entry in stats.stats.items()), reverse=True)
    return "\n".join(f"{count:6d}  {where}" for count, where in rows[:n])


@pytest.mark.parametrize("message", sorted(MESSAGES))
def test_one_isolated_wr_costs_what_it_did(message):
    measure, dispatches, virtual_ns, measured_calls = MESSAGES[message]
    profile = cProfile.Profile()
    got_dispatches, got_ns = measure(lambda sim: profile)
    assert got_ns == virtual_ns
    assert got_dispatches == dispatches
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("the interpreter-call budget is calibrated on CPython 3.11")
    stats = pstats.Stats(profile)
    calls = stats.total_calls
    assert calls <= measured_calls * 1.03, (
        f"{message}: {calls} interpreter calls, budget {measured_calls} + 3 %; "
        f"most called:\n{_top_calls(stats)}")


# ----------------------------------------------------------------------
# What one message leaves in the metric registry
# ----------------------------------------------------------------------
class _CounterDeltas:
    """Probe: the growth of every per-message counter over the stretch, as
    ``registry_snapshot`` publishes it (count, total)."""

    NAMES = ("fabric.messages", "fabric.payload_bytes",
             "a.nic.tx_messages", "a.nic.rx_messages",
             "b.nic.tx_messages", "b.nic.rx_messages",
             "a->b.rcq.completions", "b->a.rcq.completions",
             "a.mem.bytes_read", "a.mem.bytes_written",
             "b.mem.bytes_read", "b.mem.bytes_written",
             "srv.rpc.requests")

    def __init__(self, sim):
        self.sim = sim
        self.deltas = {}

    def enable(self):
        self._before = registry_snapshot(self.sim.metrics)["counters"]

    def disable(self):
        after = registry_snapshot(self.sim.metrics)["counters"]
        zero = {"count": 0, "total": 0.0}
        for name in self.NAMES:
            new, old = after.get(name, zero), self._before.get(name, zero)
            assert isinstance(new["total"], float), name
            delta = (new["count"] - old["count"], new["total"] - old["total"])
            if delta != (0, 0.0):
                self.deltas[name] = delta


#: Registry deltas of one message: name -> (count, total).
COUNTER_DELTAS = {
    "read_128": {
        "fabric.messages": (2, 2.0), "fabric.payload_bytes": (2, 144.0),
        "a.nic.tx_messages": (1, 1.0), "a.nic.rx_messages": (1, 1.0),
        "b.nic.rx_messages": (1, 1.0),
        "a.mem.bytes_written": (1, 128.0), "b.mem.bytes_read": (1, 128.0),
    },
    "write_1k": {
        "fabric.messages": (2, 2.0), "fabric.payload_bytes": (2, 1024.0),
        "a.nic.tx_messages": (1, 1.0), "a.nic.rx_messages": (1, 1.0),
        "b.nic.rx_messages": (1, 1.0),
        "a.mem.bytes_read": (1, 1024.0), "b.mem.bytes_written": (1, 1024.0),
    },
    "rpc_echo": {
        "fabric.messages": (4, 4.0), "fabric.payload_bytes": (4, 50.0),
        "a.nic.tx_messages": (1, 1.0), "a.nic.rx_messages": (2, 2.0),
        "b.nic.tx_messages": (1, 1.0), "b.nic.rx_messages": (2, 2.0),
        "a->b.rcq.completions": (1, 1.0), "b->a.rcq.completions": (1, 1.0),
        "a.mem.bytes_written": (1, 25.0), "b.mem.bytes_written": (1, 25.0),
        "srv.rpc.requests": (1, 1.0),
    },
}


@pytest.mark.parametrize("message", sorted(MESSAGES))
def test_one_message_counts_what_it_did(message):
    """Every per-message counter moves by what the message did, however a
    stage increments it."""
    probes = []

    def probe_for(sim):
        probes.append(_CounterDeltas(sim))
        return probes[-1]

    MESSAGES[message][0](probe_for)
    assert probes[0].deltas == COUNTER_DELTAS[message]


# ----------------------------------------------------------------------
# The entry points the ledger's span pass wraps
# ----------------------------------------------------------------------
def _traced_attributes():
    """``(class name, attribute)`` of every wrapper ``SpanTracer.install``
    puts on a class, read from the ledger's tracer source."""
    with open(_LEDGER_TRACER) as fh:
        tree = ast.parse(fh.read())
    return sorted(
        (node.elts[0].id, node.elts[1].value) for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name)
        and isinstance(node.elts[1], ast.Constant))


class _EntryCounts:
    """Probe: how often each traced class attribute is entered."""

    CLASSES = {cls.__name__: cls for cls in (
        MemoryDevice, Fabric, Nic, QueuePair, RpcClient)}

    def __init__(self, sim):
        self._targets = [(self.CLASSES[name], attr) for name, attr in _traced_attributes()]
        self._saved = []
        self.entries = {}

    def enable(self):
        for cls, attr in self._targets:
            orig = getattr(cls, attr)
            key = f"{cls.__name__}.{attr}"
            self.entries[key] = 0

            def entered(*args, _orig=orig, _key=key, **kwargs):
                self.entries[_key] += 1
                return _orig(*args, **kwargs)

            self._saved.append((cls, attr, orig))
            setattr(cls, attr, entered)

    def disable(self):
        for cls, attr, orig in reversed(self._saved):
            setattr(cls, attr, orig)


#: Entries per message of each attribute the ledger tracer wraps.
ENTRIES = {
    "read_128": {"Fabric.unicast": 1, "MemoryDevice.read": 1, "MemoryDevice.write": 1,
                 "Nic.rx_process": 2, "Nic.tx_process": 1, "QueuePair.post_send": 1,
                 "QueuePair.post_send_many": 0, "RpcClient.call": 0},
    "write_1k": {"Fabric.unicast": 1, "MemoryDevice.read": 1, "MemoryDevice.write": 1,
                 "Nic.rx_process": 2, "Nic.tx_process": 1, "QueuePair.post_send": 1,
                 "QueuePair.post_send_many": 0, "RpcClient.call": 0},
    "rpc_echo": {"Fabric.unicast": 2, "MemoryDevice.read": 0, "MemoryDevice.write": 2,
                 "Nic.rx_process": 4, "Nic.tx_process": 2, "QueuePair.post_send": 2,
                 "QueuePair.post_send_many": 0, "RpcClient.call": 1},
}


def test_the_tracer_wraps_the_attributes_pinned_here():
    assert _traced_attributes() == sorted(
        tuple(key.split(".")) for key in ENTRIES["read_128"])


@pytest.mark.parametrize("message", sorted(MESSAGES))
def test_one_message_enters_every_traced_layer(message):
    """A stage inlined past one of these entry points would silently drop
    a span layer from the ledger's traced pass."""
    probes = []

    def probe_for(sim):
        probes.append(_EntryCounts(sim))
        return probes[-1]

    MESSAGES[message][0](probe_for)
    assert probes[0].entries == ENTRIES[message]
