"""A dead node sends nothing: its QP is in the error state, so a WR that
reaches injection after its endpoint died completes with WR_FLUSH_ERROR and
never touches the wire, while a request already on the wire still lands.

A flushed WR takes no RC sequence number, so the responder's cursor never
waits for it once the node is back.  An RPC whose reply a death lost fails
its caller instead of leaving it waiting.
"""

import pytest

from repro.rdma import Opcode, RpcClient, RpcError, WcStatus, WorkRequest


def _write(remote, data):
    return WorkRequest(opcode=Opcode.RDMA_WRITE, inline_data=data,
                       remote_rkey=remote.rkey, remote_offset=0)


def _die_after_first_injection(rig):
    """Kill ``a`` the moment its first request has left the ports."""
    inject = rig.fabric.inject

    def hook(src, dst, nbytes):
        flight_ns = yield from inject(src, dst, nbytes)
        if src == "a":
            rig.ep_a.alive = False
        return flight_ns

    rig.fabric.inject = hook


def test_a_wr_posted_from_a_dead_endpoint_flushes_unsent(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    rig.ep_a.alive = False
    sent_before = rig.fabric.egress_bytes("a")

    def proc(sim):
        return (yield rig.qp_a.post_send(_write(remote, b"ZOMBIE")))

    wc = rig.run(proc(rig.sim))
    assert wc.status is WcStatus.WR_FLUSH_ERROR
    assert rig.fabric.egress_bytes("a") == sent_before
    assert rig.fabric.messages.count == 0
    assert remote.peek(0, 6) == bytes(6)


def test_a_write_on_the_wire_lands_and_the_one_queued_behind_it_flushes(rig):
    """The first WRITE is injected before ``a`` dies and is applied; the
    second, still queued on the send gate, flushes."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    _die_after_first_injection(rig)

    def proc(sim):
        first, second = rig.qp_a.post_send_many(
            [_write(remote, b"AAAA"), _write(remote, b"BBBB")])
        return (yield first), (yield second)

    first, second = rig.run(proc(rig.sim))
    assert first.ok
    assert second.status is WcStatus.WR_FLUSH_ERROR
    assert remote.peek(0, 4) == b"AAAA"
    assert rig.fabric.messages.count == 2  # one request, one ack


def test_an_ordered_wr_after_revive_is_not_held_behind_a_flushed_one(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)

    def proc(sim):
        rig.ep_a.alive = False
        flushed = yield rig.qp_a.post_send(_write(remote, b"DEAD"))
        rig.ep_a.alive = True
        landed = yield rig.qp_a.post_send(_write(remote, b"LIVE"))
        return flushed, landed

    flushed, landed = rig.run(proc(rig.sim))
    assert flushed.status is WcStatus.WR_FLUSH_ERROR
    assert landed.ok
    assert remote.peek(0, 4) == b"LIVE"
    assert rig.qp_a._next_seq == 1
    assert rig.qp_b._apply_seq == 1 and rig.qp_b._turns == {}


def _rpc(rig, handler):
    server = rig.rpc_server(num_buffers=8, buffer_size=2048)
    server.serve(rig.qp_b)
    server.register("call", handler)
    return RpcClient(rig.ep_a, rig.qp_a, rig.mem_a, base=0, num_buffers=8,
                     buffer_size=2048)


def _call(rig, client):
    def proc(sim):
        t0 = sim.now
        with pytest.raises(RpcError) as err:
            yield from client.call("call", "x")
        return str(err.value), sim.now - t0

    return rig.run(proc(rig.sim))


def test_a_server_that_dies_holding_a_call_fails_it_after_the_retry_timeout(rig):
    def dying(request):
        rig.ep_b.alive = False  # the reply is this node's next send
        return request

    client = _rpc(rig, dying)
    message, took = _call(rig, client)
    assert "transport failed: retry_exceeded" in message
    assert took > rig.ep_a.retry_timeout_ns
    assert client.credit_stats()["available"] == 8  # the reply slot came back


def test_a_caller_that_dies_while_its_call_is_handled_fails_it(rig):
    def kill_caller(request):
        rig.ep_a.alive = False
        return request

    client = _rpc(rig, kill_caller)
    message, _ = _call(rig, client)
    assert "transport failed: wr_flush_error" in message
    assert client.credit_stats()["available"] == 8


def test_a_dropped_wr_stops_retransmitting_once_its_sender_dies(rig):
    """A partition drops ``a``'s WRITE, ``a`` dies inside the window, and the
    partition heals after: the WR flushes at its next retransmission
    instead of reaching ``b``, and the fabric never counts it."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    fabric = rig.fabric
    heal_ns = 20 * fabric.retransmit_ns
    fabric.set_fault_hook(lambda src, dst, nbytes: (rig.sim.now < heal_ns, 0))
    rig.sim.schedule(3 * fabric.retransmit_ns + 1, setattr, rig.ep_a,
                     "alive", False)
    healed = []
    rig.sim.schedule(heal_ns, healed.append, True)

    def proc(sim):
        return (yield rig.qp_a.post_send(_write(remote, b"LOST")))

    wc = rig.run(proc(rig.sim))
    assert healed and rig.sim.now >= heal_ns
    assert wc.status is WcStatus.WR_FLUSH_ERROR
    assert fabric.dropped_messages.count == 3  # the rest were never sent
    assert fabric.messages.count == 0
    assert remote.peek(0, 4) == bytes(4)
