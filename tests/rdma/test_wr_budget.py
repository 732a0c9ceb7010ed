"""What one message costs: a per-WR budget in tier-1.

One isolated one-sided verb on the two-node rig of ``repro.bench.perf``
(idle NICs, idle fabric, idle DRAM) walks every stage of the hardware
pipeline exactly once, so its cost is a constant of the code: the virtual
time and the dispatch count hold on any interpreter, the interpreter-call
count on CPython 3.11 (the count depends on how the interpreter reports
generator resumes and builtins to ``cProfile``).  A change that adds a wait,
a generator frame or a helper call to the verb path fails here in a second
instead of waiting for a ledger run.

The call budgets are the measured counts plus 3 %: 217 for the READ (280 with
``Request`` events, before slots became kernel-native) and 223 for the WRITE
(287 before).  Lower them when a change lowers the count.
"""

import cProfile
import pstats
import sys

import pytest

from repro.bench.perf import _two_node_rig
from repro.rdma import Opcode, WorkRequest
from repro.rdma.mr import AccessFlags

VERBS = {
    # opcode, bytes: dispatches, virtual ns, measured calls
    "read_128": (Opcode.RDMA_READ, 128, 11, 1_995, 217),
    "write_1k": (Opcode.RDMA_WRITE, 1024, 11, 2_514, 223),
}


def _one_isolated_wr(opcode, length):
    """Post one WR on a warmed, idle rig with a completion callback; returns
    (interpreter calls, dispatches, virtual ns) from post to quiescence."""
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
    return (pstats.Stats(profile).total_calls,
            sim.total_dispatched - dispatched, sim.now - start)


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_one_isolated_wr_costs_what_it_did(verb):
    opcode, length, dispatches, virtual_ns, measured_calls = VERBS[verb]
    calls, got_dispatches, got_ns = _one_isolated_wr(opcode, length)
    assert got_ns == virtual_ns
    assert got_dispatches == dispatches
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("the interpreter-call budget is calibrated on CPython 3.11")
    assert calls <= measured_calls * 1.03, (
        f"{verb}: {calls} interpreter calls, budget {measured_calls} + 3 %")
