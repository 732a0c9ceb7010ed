"""Elastic RPC data plane: shared receive pool, credits, reclamation.

Covers the PROTOCOLS.md §12 mechanisms at three levels:

* ``_BufferRing`` unit behaviour — pressure growth, idle-epoch shrink,
  retired-span reuse, and the structural floor;
* ``RpcServer``/``RpcClient`` protocol behaviour — structural growth as
  QPs attach, zero-credit backpressure, crash-mid-credit reclamation and
  re-attach over the same QP;
* the pinned scale regression — the historical >=16-client wedge must
  stay fixed (structurally, capacity always exceeds the QP count).
"""

from repro.rdma import connect
from repro.rdma.rpc import RpcClient, RpcServer, _BufferRing, _CreditGate
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
# _BufferRing: pressure growth, shrink, span reuse
# ---------------------------------------------------------------------------
def test_ring_pressure_growth_doubles_capacity(rig):
    grow, state = bump_allocator()
    ring = _BufferRing(rig.ep_b, rig.mem_b, 0, 4, 256, "t.ring",
                       grow_cb=grow, shrink_idle_ns=10_000)

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
        assert ring.mr_of(held[4]) is not ring.mr_of(held[0])
        assert ring.outstanding() == 5
        for s in held:
            ring.release(s)
        assert ring.outstanding() == 0

    rig.run(proc(rig.sim))


def test_ring_shrink_after_idle_and_spare_reuse(rig):
    grow, state = bump_allocator()
    ring = _BufferRing(rig.ep_b, rig.mem_b, 0, 4, 256, "t.ring",
                       grow_cb=grow, shrink_idle_ns=10_000)

    def proc(sim):
        held = []
        for _ in range(5):  # fifth acquire forces one grow
            held.append((yield ring.acquire()))
        assert ring.capacity == 8
        for s in held:
            ring.release(s)
        # Releases inside the idle epoch must not shrink.
        assert ring.shrink_count == 0
        yield sim.timeout(20_000)
        slot = yield ring.acquire()
        ring.release(slot)  # first release past the epoch retires the chunk
        assert ring.capacity == 4 and ring.shrink_count == 1
        assert len(ring._spare_spans) == 1
        # Re-growth reuses the parked span: no new carve, no new memory.
        held = []
        for _ in range(5):
            held.append((yield ring.acquire()))
        assert ring.capacity == 8 and ring.grow_count == 2
        assert state["calls"] == 1  # the carve from the first grow only
        assert not ring._spare_spans
        for s in held:
            ring.release(s)

    rig.run(proc(rig.sim))


def test_ring_structural_floor_blocks_shrink(rig):
    grow, _ = bump_allocator()
    ring = _BufferRing(rig.ep_b, rig.mem_b, 0, 4, 256, "t.ring",
                       grow_cb=grow, shrink_idle_ns=10_000)
    ring.ensure_capacity(6)  # attach-time sizing: capacity doubles to 8
    assert ring.capacity == 8

    def proc(sim):
        yield sim.timeout(20_000)
        slot = yield ring.acquire()
        ring.release(slot)
        # Fully idle past the epoch, but the floor holds the chunk: slots
        # 4..7 backing attached QPs must never be retired under them.
        assert ring.capacity == 8 and ring.shrink_count == 0

    rig.run(proc(rig.sim))


# ---------------------------------------------------------------------------
# Credit gate unit behaviour
# ---------------------------------------------------------------------------
def test_credit_gate_blocks_at_zero_and_wakes_fifo(rig):
    gate = _CreditGate(rig.sim, 2, "t.credit")
    assert gate.take() is None and gate.take() is None  # window consumed
    first, second = gate.take(), gate.take()
    assert first is not None and not first.triggered
    assert gate.stalls == 2
    gate.refund()  # a failed send hands its credit back: FIFO waiter wakes
    assert first.triggered and not second.triggered
    gate.on_reply(2)  # a reply returns one credit (window unchanged)
    assert second.triggered
    assert gate.available == 0 and not gate._waiters


def test_credit_gate_adopts_moved_window(rig):
    gate = _CreditGate(rig.sim, 4, "t.credit")
    for _ in range(3):
        gate.take()
    gate.on_reply(8)  # server regrew: grant jumps 4 -> 8
    assert gate.window == 8
    assert gate.available == 1 + 1 + (8 - 4)  # left + replied + delta


# ---------------------------------------------------------------------------
# RpcServer: structural growth, backpressure, reclamation
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
        server.serve(qb, peer=f"c{i}")
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
    # A fixed-depth pool: the window under test is exactly four slots.
    server = rig.rpc_server(num_buffers=4, buffer_size=512, max_slots=4)
    inflight = {"now": 0, "max": 0}

    def slow(req):
        inflight["now"] += 1
        inflight["max"] = max(inflight["max"], inflight["now"])
        yield rig.sim.timeout(5_000)
        inflight["now"] -= 1
        return req

    server.register("slow", slow)
    server.serve(rig.qp_b, peer="c0")
    client = RpcClient(rig.ep_a, rig.qp_a, rig.mem_a, base=0, num_buffers=4,
                       buffer_size=512)
    results = []

    def caller(i):
        result = yield from client.call("slow", i)
        results.append(result)

    for i in range(12):
        rig.sim.spawn(caller(i))
    rig.sim.run()
    # Every call completed, but never more than the credit window at once.
    assert sorted(results) == list(range(12))
    assert inflight["max"] <= 4
    stats = client.credit_stats()
    assert stats["stalls"] >= 8  # 12 calls through a window of 4
    assert stats["available"] == stats["window"]  # all credits returned
    assert stats["waiters"] == 0


def test_reclaim_parks_loop_and_reattach_resumes(rig):
    server = rig.rpc_server(num_buffers=4, buffer_size=512)
    server.register("echo", lambda req: req)
    server.serve(rig.qp_b, peer="c0")
    client = RpcClient(rig.ep_a, rig.qp_a, rig.mem_a, base=0, num_buffers=4,
                       buffer_size=512)

    def proc(sim):
        assert (yield from client.call("echo", 1)) == 1
        # The lease sweep declares c0 dead mid-credit: its posted receive
        # slot must come back to the shared pool.
        assert server.reclaim_peer("c0") is True
        assert server.reclaim_peer("c0") is False  # idempotent while parked
        yield sim.timeout(1_000)  # let the serve loop process the park WC
        stats = server.pool_stats()
        assert stats["parked"] == 1
        assert stats["outstanding"] == 0  # the posted slot was withdrawn
        assert server.reclaims.count == 1
        # Re-attach over the same QP: the very next send is real demand,
        # the loop re-arms and serves as if nothing happened.
        assert (yield from client.call("echo", 2)) == 2
        stats = server.pool_stats()
        assert stats["parked"] == 0
        assert stats["outstanding"] == 1  # one freshly posted receive

    rig.run(proc(rig.sim))


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
    all serve loops parked); now the pool grows ahead of the QP count and
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
    # No slot leak: after quiesce each live serve loop holds exactly its
    # one posted receive.
    assert stats["outstanding"] == stats["qps"] - stats["parked"]
