"""RPC admission and the shared receive pool (PROTOCOLS.md §12).

Covers the mechanisms at three levels:

* ``_BufferRing`` unit behaviour — pressure growth;
* ``RpcServer``/``RpcClient`` protocol behaviour — structural growth as
  QPs attach, and the client's receive window bounding what it has in
  flight;
* the pinned scale regression — the historical >=16-client wedge must
  stay fixed (structurally, capacity always exceeds the QP count).
"""

import pytest

from repro.rdma import connect, rpc
from repro.rdma.rpc import RpcClient, RpcServer, _BufferRing
from repro.sim import Simulator


def bump_allocator(start=1 << 20):
    """A grow_cb standing in for DramCarver: bump-allocates, counts calls."""
    state = {"base": start, "calls": 0}

    def grow(nbytes):
        state["calls"] += 1
        base = state["base"]
        state["base"] += nbytes
        return base

    return grow, state


# ---------------------------------------------------------------------------
# _BufferRing: pressure growth
# ---------------------------------------------------------------------------
def test_ring_pressure_growth_doubles_capacity(rig):
    grow, state = bump_allocator()
    ring = _BufferRing(rig.ep_b, rig.mem_b, 0, 4, 256, "t.ring", grow_cb=grow)

    def proc(sim):
        held = []
        for _ in range(4):
            held.append((yield ring.acquire()))
        assert ring.capacity == 4 and ring.grow_count == 0
        # Fifth acquire under pressure: the pool doubles instead of parking.
        held.append((yield ring.acquire()))
        assert ring.capacity == 8
        assert ring.grow_count == 1 and state["calls"] == 1
        # The new slot lives in its own chunk with its own MR.
        assert ring._slot_mr[held[4]] is not ring._slot_mr[held[0]]
        assert ring.outstanding() == 5
        for s in held:
            ring.release(s)
        assert ring.outstanding() == 0

    rig.run(proc(rig.sim))


# ---------------------------------------------------------------------------
# RpcServer: structural growth; RpcClient: the receive window
# ---------------------------------------------------------------------------
def test_server_pool_grows_with_attached_qps(rig):
    grow, _ = bump_allocator()
    server = RpcServer(rig.ep_b, rig.mem_b, base=0, num_buffers=2,
                       buffer_size=512, grow_cb=grow)
    server.register("echo", lambda req: req)
    pairs = [(rig.qp_a, rig.qp_b)]
    pairs += [connect(rig.ep_a, rig.ep_b) for _ in range(3)]
    clients = []
    for i, (qa, qb) in enumerate(pairs):
        server.serve(qb)
        clients.append(RpcClient(rig.ep_a, qa, rig.mem_a, base=i * 4096,
                                 num_buffers=2, buffer_size=512,
                                 name=f"c{i}.rpcc"))
    stats = server.pool_stats()
    # Structural invariant: capacity always exceeds the QP count, so the
    # slot-exhaustion wedge cannot occur regardless of load.
    assert stats["qps"] == 4
    assert stats["capacity"] > stats["qps"]
    assert stats["grows"] >= 1

    def proc(sim):
        for i, client in enumerate(clients):
            result = yield from client.call("echo", i)
            assert result == i

    rig.run(proc(rig.sim))


def test_zero_credit_backpressure_bounds_outstanding(rig):
    # The client's receive window under test is exactly four slots.
    server = rig.rpc_server(num_buffers=4, buffer_size=512)
    inflight = {"now": 0, "max": 0}

    def slow(req):
        inflight["now"] += 1
        inflight["max"] = max(inflight["max"], inflight["now"])
        yield rig.sim.timeout(5_000)
        inflight["now"] -= 1
        return req

    server.register("slow", slow)
    server.serve(rig.qp_b)
    client = RpcClient(rig.ep_a, rig.qp_a, rig.mem_a, base=0, num_buffers=4,
                       buffer_size=512)
    results = []

    def caller(i):
        result = yield from client.call("slow", i)
        results.append(result)

    for i in range(12):
        rig.sim.spawn(caller(i))
    rig.sim.run()
    # Every call completed, but never more than the receive window at once.
    assert sorted(results) == list(range(12))
    assert inflight["max"] <= 4
    stats = client.credit_stats()
    assert stats["stalls"] >= 8  # 12 calls through a window of 4
    assert stats["available"] == stats["window"]  # every slot came back
    assert stats["waiters"] == 0


@pytest.mark.parametrize("ceiling", [None, 6])
def test_a_burst_past_the_pool_depth_leaves_one_receive_per_qp(rig, monkeypatch, ceiling):
    """Three clients put 24 calls in flight against a pool four slots deep.
    Each request is consumed where its completion lands, and the QP's one
    receive re-posted there; at quiescence every QP holds exactly one
    posted receive and no reply slot is out.  At a ring ceiling of 6 the
    replies outnumber the response ring, so handlers park for a reply
    slot, and every call still completes."""
    if ceiling is not None:
        monkeypatch.setattr(rpc, "DEFAULT_MAX_RING_SLOTS", ceiling)
    server = rig.rpc_server(num_buffers=4, buffer_size=512)

    def slow_echo(req):
        yield 2_000
        return req

    server.register("echo", slow_echo)
    pairs = [(rig.qp_a, rig.qp_b)] + [connect(rig.ep_a, rig.ep_b) for _ in range(2)]
    clients = []
    for i, (qa, qb) in enumerate(pairs):
        server.serve(qb)
        clients.append(RpcClient(rig.ep_a, qa, rig.mem_a, base=i * 8 * 1024,
                                 num_buffers=8, buffer_size=512, name=f"c{i}.rpcc"))
    results = []

    def caller(client, i):
        results.append((yield from client.call("echo", i)))

    for n, client in enumerate(clients):
        for i in range(8):
            rig.sim.spawn(caller(client, 8 * n + i))
    rig.sim.run()
    assert sorted(results) == list(range(24))
    assert [len(qb._recv_queue) for _, qb in pairs] == [1, 1, 1]
    stats = server.pool_stats()
    assert stats["qps"] == 3
    assert stats["outstanding"] == stats["qps"]
    assert stats["tx_outstanding"] == 0
    assert stats["tx_capacity"] == (ceiling or 32)  # grown under the burst
    assert server.requests.count == 24


# ---------------------------------------------------------------------------
# Pinned scale regressions (the historical >=16-client wedge)
# ---------------------------------------------------------------------------
def test_pool_builds_with_sixteen_clients():
    from repro.core import GengarPool

    sim = Simulator(seed=11)
    pool = GengarPool.build(sim, num_servers=4, num_clients=16)
    assert len(pool.clients) == 16


def test_concurrent_32_client_ycsb_completes():
    """The true wedge: concurrent load from 32 clients over 8 servers.

    Before the elastic pool this deadlocked (every receive slot claimed,
    every serve loop of that time parked); now the pool grows ahead of the QP count and
    the sweep completes with no slot leak.
    """
    from dataclasses import replace

    from repro.baselines.common import build_system
    from repro.bench.runner import YcsbRunner
    from repro.workloads.ycsb import WORKLOAD_B

    sim = Simulator(seed=13)
    system = build_system(
        "gengar", sim, num_servers=8, num_clients=32,
        config_overrides=lambda c: replace(c, num_master_shards=4))
    spec = WORKLOAD_B.scaled(record_count=64, value_size=128)
    runner = YcsbRunner(system, spec, num_workers=32, ops_per_worker=10)
    runner.load()
    result = runner.run()
    assert result.total_ops == 320
    stats = system.pool.master.rpc.pool_stats()
    assert stats["grows"] >= 1
    assert stats["capacity"] > stats["qps"]
    # No slot leak: after quiesce each served QP holds exactly its one
    # posted receive.
    assert stats["outstanding"] == stats["qps"]
