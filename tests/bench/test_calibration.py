"""Calibration: the simulator must track the closed-form cost models.

Each test measures an uncontended operation end to end through the full
stack (client library -> verbs -> NIC -> fabric -> devices) and compares it
with the analytic path model.  A drift beyond tolerance means some protocol
path double-charges or drops a cost component.
"""

import pytest

from repro import obs
from repro.bench.calibration import (
    PathModel,
    calibration_report,
    expected_atomic_ns,
    expected_back_to_back_ns,
    expected_backlogged_drain_ns,
    expected_cold_read_ns,
    expected_direct_write_ns,
    expected_hot_read_ns,
    expected_proxy_write_ns,
    expected_rdma_read_ns,
    expected_rdma_write_ns,
)
from repro.hardware.memory import MemoryDevice
from repro.hardware.network import Fabric
from repro.hardware.nic import PIPELINE_WIDTH, Nic
from repro.hardware.specs import CONNECTX5_NIC, DEFAULT_LINK, TEST_DRAM, TEST_NVM
from repro.rdma import Opcode, RdmaEndpoint, WorkRequest, connect
from repro.rdma.qp import READ_REQUEST_BYTES
from repro.sim import Simulator

from tests.core.conftest import build_pool, fast_config

MODEL = PathModel(
    nic=CONNECTX5_NIC,
    link=DEFAULT_LINK,
    client_dram=TEST_DRAM,
    server_dram=TEST_DRAM,
    server_nvm=TEST_NVM,
)

#: The simulator may differ from closed form by rounding and the message-rate
#: token bucket; the tolerance is deliberately tight.
TOL = 0.06


def measure(op_factory, sim, reps=5):
    total = {"ns": 0}

    def proc(sim):
        for _ in range(reps):
            t0 = sim.now
            yield from op_factory()
            total["ns"] += sim.now - t0
            yield sim.timeout(20_000)  # keep every rep uncontended

    p = sim.spawn(proc(sim))
    sim.run_until_complete(p)
    return total["ns"] / reps


@pytest.mark.parametrize("size", [64, 1024, 4096, 65536])
def test_cold_read_matches_model(size):
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(enable_cache=False,
                                              enable_proxy=False))
    client = pool.clients[0]
    holder = {}

    def setup(sim):
        holder["g"] = yield from client.gmalloc(size)
        yield from client.gwrite(holder["g"], b"x" * size)
        yield from client.gread(holder["g"])  # warm metadata

    pool.run(setup(sim))
    measured = measure(lambda: client.gread(holder["g"]), sim)
    expected = expected_cold_read_ns(MODEL, size)
    assert measured == pytest.approx(expected, rel=TOL), (size, measured, expected)


@pytest.mark.parametrize("size", [64, 1024, 16384])
def test_hot_read_matches_model(size):
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    holder = {}

    def setup(sim):
        g = yield from client.gmalloc(size)
        yield from client.gwrite(g, b"h" * size)
        yield from client.gsync()
        yield from pool.master.pin(g)
        client._metas.drop(g)
        yield from client.gread(g, length=1)  # warm metadata
        holder["g"] = g

    pool.run(setup(sim))
    measured = measure(lambda: client.gread(holder["g"]), sim)
    expected = expected_hot_read_ns(MODEL, size)
    assert measured == pytest.approx(expected, rel=TOL), (size, measured, expected)


@pytest.mark.parametrize("size", [512, 2048])
def test_proxy_write_matches_model(size):
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=64))
    client = pool.clients[0]
    holder = {}

    def setup(sim):
        holder["g"] = yield from client.gmalloc(size)

    pool.run(setup(sim))
    measured = measure(lambda: client.gwrite(holder["g"], b"p" * size), sim)
    expected = expected_proxy_write_ns(MODEL, size)
    assert measured == pytest.approx(expected, rel=TOL), (size, measured, expected)


@pytest.mark.parametrize("size", [512, 4096, 65536])
def test_direct_write_matches_model(size):
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(enable_cache=False,
                                              enable_proxy=False))
    client = pool.clients[0]
    holder = {}

    def setup(sim):
        holder["g"] = yield from client.gmalloc(size)

    pool.run(setup(sim))
    measured = measure(lambda: client.gwrite(holder["g"], b"w" * size), sim)
    expected = expected_direct_write_ns(MODEL, size)
    assert measured == pytest.approx(expected, rel=TOL), (size, measured, expected)


def test_atomic_matches_model():
    """Measure a raw CAS through the verbs layer (no client-library cost)."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    holder = {}

    def setup(sim):
        holder["g"] = yield from client.gmalloc(64)
        meta = yield from client._metas.lookup(holder["g"])
        holder["meta"] = meta

    pool.run(setup(sim))
    meta = holder["meta"]

    def one_cas():
        value = yield from client._atomic_cas(
            meta.server_id, meta.lock_idx * 8, compare=0, swap=0)
        return value

    measured = measure(one_cas, sim)
    expected = expected_atomic_ns(MODEL)
    assert measured == pytest.approx(expected, rel=TOL), (measured, expected)


def test_report_structure():
    report = calibration_report(MODEL)
    assert set(report) == {"cold_read_us", "hot_read_us", "proxy_write_us",
                           "direct_write_us", "atomic_us"}
    # The model itself encodes the design story:
    assert report["hot_read_us"][65536] < report["cold_read_us"][65536] * 0.8
    assert report["proxy_write_us"][65536] < report["direct_write_us"][65536] * 0.5


def test_model_monotone_in_size():
    prev = 0.0
    for size in (64, 256, 1024, 4096, 16384, 65536):
        value = expected_rdma_read_ns(MODEL, size)
        assert value > prev
        prev = value


# ---------------------------------------------------------------------------
# Contended: back-to-back WRs on one QP, and lanes filling the TX pipeline
# ---------------------------------------------------------------------------
#: Payload of every back-to-back WR (inline for a WRITE).
B2B_BYTES = 64


def _back_to_back(opcode, n, lanes=1):
    """Post ``n`` WRs back to back on each of ``lanes`` idle QPs between two
    nodes built from MODEL's specs, at one instant; each lane's completion
    times in ns after posting."""
    sim = Simulator(seed=0)
    fabric = Fabric(sim, MODEL.link)
    ends = []
    for name in ("a", "b"):
        mem = MemoryDevice(sim, MODEL.server_dram, name=f"{name}.mem")
        ep = RdmaEndpoint(sim, name, Nic(sim, MODEL.nic, f"{name}.nic"), fabric)
        ends.append((ep, ep.register_mr(mem, 0, 1 << 20)))
    (ep_a, local), (ep_b, remote) = ends
    qps = [connect(ep_a, ep_b)[0] for _ in range(lanes)]

    def wr(i):
        if opcode is Opcode.RDMA_READ:
            return WorkRequest(opcode=opcode, local_mr=local, local_offset=i * B2B_BYTES,
                               length=B2B_BYTES, remote_rkey=remote.rkey,
                               remote_offset=i * B2B_BYTES)
        return WorkRequest(opcode=opcode, inline_data=bytes(B2B_BYTES),
                           remote_rkey=remote.rkey, remote_offset=i * B2B_BYTES)

    t0 = sim.now
    posted = [qp.post_send_many([wr(lane * n + i) for i in range(n)])
              for lane, qp in enumerate(qps)]
    sim.run()
    assert all(ev.value.ok for evs in posted for ev in evs)
    return [[ev.value.timestamp - t0 for ev in evs] for evs in posted]


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("opcode, request_bytes, uncontended", [
    (Opcode.RDMA_READ, READ_REQUEST_BYTES,
     lambda: expected_rdma_read_ns(MODEL, B2B_BYTES, from_nvm=False)),
    (Opcode.RDMA_WRITE, B2B_BYTES,
     lambda: expected_rdma_write_ns(MODEL, B2B_BYTES, to_nvm=False)),
], ids=["read", "write"])
def test_back_to_back_wrs_on_one_qp_match_the_closed_form(
        opcode, request_bytes, uncontended, n):
    """The k-th of N completes at T1 + (k-1)·(processing_ns + wire_time),
    exactly: one QP's send gate holds a WQE through NIC processing and
    injection only, never through the 500 ns flight."""
    ((first,),) = _back_to_back(opcode, 1)
    assert first == pytest.approx(uncontended(), rel=TOL)
    (times,) = _back_to_back(opcode, n)
    assert times == [expected_back_to_back_ns(MODEL, first, k, request_bytes)
                     for k in range(1, n + 1)]


def test_lanes_fill_the_tx_pipeline_at_the_closed_form():
    """PIPELINE_WIDTH QPs posting at once keep every TX slot busy: each lane
    runs at the one-QP period, lane i one request serialization behind lane
    i-1, so the NIC completes PIPELINE_WIDTH WRs per period."""
    ((first,),) = _back_to_back(Opcode.RDMA_WRITE, 1)
    lanes = _back_to_back(Opcode.RDMA_WRITE, 4, lanes=PIPELINE_WIDTH)
    assert lanes == [
        [expected_back_to_back_ns(MODEL, first, k, B2B_BYTES, lane=lane)
         for k in range(1, 5)]
        for lane in range(PIPELINE_WIDTH)]


# ---------------------------------------------------------------------------
# Contended: a backed-up proxy ring draining across the NVM channels
# ---------------------------------------------------------------------------
#: Ring depth of the drain burst (half of it backs the ring up).
DRAIN_SLOTS = 16
#: How long the drain stays stalled while the burst is staged.
DRAIN_STALL_NS = 200_000


@pytest.mark.parametrize("frames, payload", [
    (8, 1024), (16, 1024), (13, 4000), (16, 64)])
def test_backed_up_ring_drains_at_the_closed_form(frames, payload):
    """Exact: a drain stall lets N equal frames (distinct objects, N at
    least half the ring) pile into one ring; from the moment it lifts, the
    last frame is applied and retired exactly expected_backlogged_drain_ns
    later.  The frames overlap across the NVM channels, one per channel,
    behind a drain loop that parses one header per cpu_op_ns — the 64-byte
    case is parse-bound.  A serial drain would take N·(parse + write)."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(enable_cache=False,
                                              proxy_ring_slots=DRAIN_SLOTS))
    rec = obs.install(sim)
    client, server = pool.clients[0], pool.servers[0]
    holder = {}

    def burst(sim):
        addrs = []
        for _ in range(frames):
            addrs.append((yield from client.gmalloc(payload)))
        server.drain.stall(DRAIN_STALL_NS)
        holder["release"] = sim.now + DRAIN_STALL_NS
        for i, gaddr in enumerate(addrs):
            yield from client.gwrite(gaddr, bytes([i + 1]) * payload)
        assert sim.now < holder["release"]  # all staged behind the stall
        yield from client.gsync()

    pool.run(burst(sim))
    drains = rec.by_name("srv.drain")
    assert len(drains) == frames
    assert all(s.fields["overlapped"] for s in drains)
    drained_at = max(s.end_ns for s in drains) - holder["release"]
    assert drained_at == expected_backlogged_drain_ns(
        MODEL, frames, payload, cpu_op_ns=server.node.spec.cpu_op_ns)
