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

The call budgets are the measured counts plus 3 %: 200 for the READ (217
while a WR had a completion event beside its process and a send CQ, 280 with
``Request`` events before that), 206 for the WRITE (223, 287) and 557 for the
echo RPC, whose client takes and returns a receive credit like every pool
connection (552 while this rig alone ran a credit-free fixed ring, 634 while
every ``Store`` hand-off was a pair of events).  Lower them when a change
lowers the count.
"""

import cProfile
import pstats
import sys

import pytest

from repro.bench.perf import _echo_rpc_rig, _two_node_rig
from repro.rdma import Opcode, WorkRequest
from repro.rdma.mr import AccessFlags


def _cost(profile, sim, start, dispatched):
    """(interpreter calls, dispatches, virtual ns) of a profiled stretch."""
    return (pstats.Stats(profile).total_calls,
            sim.total_dispatched - dispatched, sim.now - start)


def _one_isolated_wr(opcode, length):
    """Post one WR on a warmed, idle rig with a completion callback; the
    cost from post to quiescence."""
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
    profile = cProfile.Profile()
    profile.enable()
    qp_a.post_send(request).add_callback(completions.append)
    sim.run()
    profile.disable()
    assert completions and completions[0].value.status.name == "SUCCESS"
    return _cost(profile, sim, start, dispatched)


def _one_echo_rpc():
    """One echo call on a warmed, idle rig — client and server of
    ``bench_rpc``, the serve loop parked on its receive CQ; the cost from
    spawning the caller to quiescence."""
    sim, client = _echo_rpc_rig()
    sim.run_until_complete(sim.spawn(client.call("echo", 0)))  # warm-up
    sim.run()
    start, dispatched = sim.now, sim.total_dispatched
    profile = cProfile.Profile()
    profile.enable()
    call = sim.spawn(client.call("echo", 1))
    sim.run()
    profile.disable()
    assert call.value == 1
    return _cost(profile, sim, start, dispatched)


MESSAGES = {
    # what: how, dispatches, virtual ns, measured calls
    "read_128": (lambda: _one_isolated_wr(Opcode.RDMA_READ, 128), 11, 1_995, 200),
    "write_1k": (lambda: _one_isolated_wr(Opcode.RDMA_WRITE, 1024), 11, 2_514, 206),
    "rpc_echo": (_one_echo_rpc, 31, 2_941, 557),
}


@pytest.mark.parametrize("message", sorted(MESSAGES))
def test_one_isolated_wr_costs_what_it_did(message):
    measure, dispatches, virtual_ns, measured_calls = MESSAGES[message]
    calls, got_dispatches, got_ns = measure()
    assert got_ns == virtual_ns
    assert got_dispatches == dispatches
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("the interpreter-call budget is calibrated on CPython 3.11")
    assert calls <= measured_calls * 1.03, (
        f"{message}: {calls} interpreter calls, budget {measured_calls} + 3 %")
