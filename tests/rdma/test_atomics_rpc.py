"""Tests for RDMA atomics and the RPC layer."""

import pytest

from repro.rdma import Opcode, QpError, RpcClient, RpcError, WcStatus, WorkRequest, connect
from repro.rdma.mr import AccessFlags


# ---------------------------------------------------------------------------
# Atomics
# ---------------------------------------------------------------------------
def atomic_cas(rig, mr, offset, compare, swap):
    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_CAS,
            remote_rkey=mr.rkey, remote_offset=offset,
            compare=compare, swap=swap,
        ))
        return wc

    return rig.run(proc(rig.sim))


def test_cas_succeeds_when_expected_matches(rig):
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    mr.write_u64(0, 100)
    wc = atomic_cas(rig, mr, 0, compare=100, swap=200)
    assert wc.ok
    assert wc.atomic_value == 100  # prior value returned
    assert mr.read_u64(0) == 200


def test_cas_fails_when_expected_differs(rig):
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    mr.write_u64(0, 55)
    wc = atomic_cas(rig, mr, 0, compare=100, swap=200)
    assert wc.ok  # the verb succeeds; the CAS itself did not take effect
    assert wc.atomic_value == 55
    assert mr.read_u64(0) == 55  # unchanged


def test_faa_adds_and_returns_prior(rig):
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    mr.write_u64(8, 10)

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_FAA, remote_rkey=mr.rkey, remote_offset=8, add=5,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.atomic_value == 10
    assert mr.read_u64(8) == 15


def test_faa_wraps_at_64_bits(rig):
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    mr.write_u64(0, (1 << 64) - 1)

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_FAA, remote_rkey=mr.rkey, remote_offset=0, add=2,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert mr.read_u64(0) == 1  # wrapped


def test_concurrent_faa_is_atomic(rig):
    """N concurrent fetch-and-adds must not lose any increments."""
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    mr.write_u64(0, 0)
    n = 20

    def adder(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_FAA, remote_rkey=mr.rkey, remote_offset=0, add=1,
        ))
        return wc.atomic_value

    procs = [rig.sim.spawn(adder(rig.sim)) for _ in range(n)]
    rig.sim.run()
    priors = sorted(p.value for p in procs)
    assert priors == list(range(n))  # every prior value seen exactly once
    assert mr.read_u64(0) == n


def test_atomic_requires_remote_atomic_flag(rig):
    mr = rig.ep_b.register_mr(
        rig.mem_b, base=0, length=64,
        access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
    )
    wc = atomic_cas(rig, mr, 0, compare=0, swap=1)
    assert wc.status is WcStatus.REMOTE_ACCESS_ERROR


def test_atomic_wrong_length_rejected(rig):
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    with pytest.raises(QpError):
        rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_CAS, remote_rkey=mr.rkey, length=4,
        ))


# ---------------------------------------------------------------------------
# RPC
# ---------------------------------------------------------------------------
def build_rpc(rig):
    server = rig.rpc_server(num_buffers=8, buffer_size=2048)
    server.serve(rig.qp_b)
    client = RpcClient(rig.ep_a, rig.qp_a, rig.mem_a, base=0, num_buffers=8, buffer_size=2048)
    return server, client


def test_rpc_roundtrip(rig):
    server, client = build_rpc(rig)
    server.register("echo", lambda req: req)

    def proc(sim):
        result = yield from client.call("echo", {"x": 1, "y": [1, 2, 3]})
        return result

    assert rig.run(proc(rig.sim)) == {"x": 1, "y": [1, 2, 3]}


def test_rpc_generator_handler_consumes_time(rig):
    server, client = build_rpc(rig)

    def slow_handler(req):
        yield rig.sim.timeout(10_000)
        return req * 2

    server.register("double", slow_handler)

    def proc(sim):
        start = sim.now
        result = yield from client.call("double", 21)
        return result, sim.now - start

    result, elapsed = rig.run(proc(rig.sim))
    assert result == 42
    assert elapsed >= 10_000


def test_rpc_unknown_method_raises(rig):
    _, client = build_rpc(rig)

    def proc(sim):
        yield from client.call("nope")

    p = rig.sim.spawn(proc(rig.sim))
    rig.sim.run()
    assert not p.ok
    assert isinstance(p.exception, RpcError)


def test_rpc_handler_exception_propagates_as_rpc_error(rig):
    server, client = build_rpc(rig)

    def bad(req):
        raise KeyError("missing")

    server.register("bad", bad)

    def proc(sim):
        try:
            yield from client.call("bad")
        except RpcError as exc:
            return str(exc)

    msg = rig.run(proc(rig.sim))
    assert "KeyError" in msg


def test_rpc_concurrent_calls_demuxed_correctly(rig):
    server, client = build_rpc(rig)

    def handler(req):
        # Later requests finish first: reply order is inverted.
        yield rig.sim.timeout((10 - req) * 1000)
        return req * req

    server.register("square", handler)

    def caller(sim, i):
        result = yield from client.call("square", i)
        return (i, result)

    procs = [rig.sim.spawn(caller(rig.sim, i)) for i in range(5)]
    rig.sim.run()
    assert sorted(p.value for p in procs) == [(i, i * i) for i in range(5)]


def test_rpc_oversized_payload_rejected(rig):
    server, client = build_rpc(rig)
    server.register("echo", lambda req: req)

    def proc(sim):
        yield from client.call("echo", "x" * 10_000)

    p = rig.sim.spawn(proc(rig.sim))
    rig.sim.run()
    assert not p.ok
    assert isinstance(p.exception, RpcError)


def test_rpc_oversized_reply_raises_at_the_caller(rig):
    """A reply too large for its buffer comes back as an error reply, so
    the caller raises instead of waiting forever for a reply never sent."""
    server, client = build_rpc(rig)
    server.register("big", lambda req: b"x" * 5 * 1024)

    def proc(sim):
        try:
            yield from client.call("big")
        except RpcError as exc:
            return str(exc)

    p = rig.sim.spawn(proc(rig.sim))
    rig.sim.run()
    assert p.triggered, "the caller is still waiting for its reply"
    assert "exceeds buffer size" in p.value


def test_rpc_many_sequential_calls_reuse_buffers(rig):
    server, client = build_rpc(rig)
    server.register("inc", lambda req: req + 1)

    def proc(sim):
        value = 0
        for _ in range(30):  # more calls than ring slots
            value = yield from client.call("inc", value)
        return value

    assert rig.run(proc(rig.sim)) == 30
    assert server.requests.count == 30


def test_rpc_failed_calls_to_dead_peer_do_not_exhaust_recv_ring(rig):
    """A dead peer must fail every call typed, forever — not just the
    first ring's worth.

    Each call posts a reply buffer before sending; when the send dies
    with RETRY_EXCEEDED that buffer can never be consumed, so it must be
    flushed back to the ring (QP error-state recv flush).  Before the
    flush existed, failed call N+1 > num_buffers would block on the
    empty free list forever — a client that outlived a crashed master
    wedged instead of riding its retry loop.
    """
    server, client = build_rpc(rig)
    server.register("echo", lambda req: req)
    rig.ep_b.alive = False

    def proc(sim):
        failures = 0
        for _ in range(3 * 8):  # 3x the ring, every one must fail typed
            try:
                yield from client.call("echo", "hi")
            except RpcError:
                failures += 1
        return failures

    assert rig.run(proc(rig.sim)) == 24

    # The peer comes back: the ring must be whole again and calls work.
    rig.ep_b.alive = True

    def after(sim):
        return (yield from client.call("echo", "back"))

    assert rig.run(after(rig.sim)) == "back"
