"""Read lanes: a client opens enough data QPs per server to fill its NIC's
TX pipeline, RDMA READs spread over them, and everything whose order
matters stays on lane 0 (the ordered lane)."""

import pytest

from repro.core import ClientError
from repro.hardware.nic import PIPELINE_WIDTH
from repro.rdma.wr import Opcode, WcStatus

from tests.core.conftest import build_pool


def _load_objects(client, count, size=128):
    addrs = []
    for i in range(count):
        g = yield from client.gmalloc(size)
        yield from client.gwrite(g, bytes([i % 251]) * size)
        addrs.append(g)
    yield from client.gsync()
    return addrs


def _record_posts(conn, log):
    """Wrap every lane's ``post_send``/``post_send_many``; each posted WR
    appends ``(lane, opcode)`` to ``log`` and its completion process goes
    to ``log.procs``."""
    for lane, qp in enumerate(conn.lanes):
        one, many = qp.post_send, qp.post_send_many

        def post_send(wr, _one=one, _lane=lane):
            log.append((_lane, wr.opcode))
            proc = _one(wr)
            log.procs.append((_lane, proc))
            return proc

        def post_send_many(wrs, _many=many, _lane=lane):
            log.extend((_lane, wr.opcode) for wr in wrs)
            procs = _many(wrs)
            log.procs.extend((_lane, p) for p in procs)
            return procs

        qp.post_send, qp.post_send_many = post_send, post_send_many


class _PostLog(list):
    def __init__(self):
        super().__init__()
        self.procs = []


@pytest.mark.parametrize("servers, lanes", [(1, 4), (2, 2), (4, 1), (8, 1)])
def test_lane_count_fills_the_pipeline(servers, lanes):
    _sim, pool = build_pool(num_servers=servers, num_clients=1)
    conns = pool.clients[0]._conns.values()
    assert [len(c.lanes) for c in conns] == [lanes] * servers
    assert servers * lanes >= PIPELINE_WIDTH
    # The lanes are distinct QPs, and lane 0 is the ordered lane.
    for conn in conns:
        assert len({qp.qp_num for qp in conn.lanes}) == lanes
        assert conn.data_qp is conn.lanes[0]


def test_only_reads_leave_the_ordered_lane():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]
    log = _PostLog()

    def app(sim):
        for conn in client._conns.values():
            _record_posts(conn, log)
        addrs = yield from _load_objects(client, 8)
        for g in addrs[:4]:
            yield from client.gwrite(g, b"w" * 128)
        yield from client.gsync()
        # Lock rounds between single reads, so the read cursor sits at a
        # different lane each time an atomic goes out.
        for _ in range(2):
            yield from client.glock(addrs[0])
            yield from client.gwrite(addrs[0], b"x" * 128)
            yield from client.gunlock(addrs[0])
            yield from client.gread(addrs[0])
        values = yield from client.gread_many(addrs)
        single = yield from client.gread(addrs[7])
        return values, single

    ((values, single),) = pool.run(app(sim))
    assert values[0] == b"x" * 128
    assert values[1:4] == [b"w" * 128] * 3
    assert single == bytes([7]) * 128
    off_lane_0 = {op for lane, op in log if lane > 0}
    assert off_lane_0 == {Opcode.RDMA_READ}
    on_lane_0 = {op for lane, op in log if lane == 0}
    assert {Opcode.RDMA_WRITE_IMM, Opcode.ATOMIC_CAS} <= on_lane_0


def test_combine_run_across_lanes_is_one_device_transfer():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    (conn,) = client._conns.values()
    node_name = pool.servers[0].node.name
    log = _PostLog()

    def app(sim):
        # Consecutive equal-size allocations are NVM-adjacent.
        addrs = yield from _load_objects(client, 4)
        _record_posts(conn, log)
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i]) * 128 for i in range(4)]
    # One member per lane, one combined transfer at the target.
    assert sorted(lane for lane, _op in log) == [0, 1, 2, 3]
    assert sim.metrics.counter(f"{node_name}.combine.transfers").count == 1
    assert sim.metrics.counter(f"{node_name}.combine.members").total == 4


def test_server_crash_fails_every_lane_and_reattach_heals():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    (conn,) = client._conns.values()
    log = _PostLog()

    def before(sim):
        addrs = yield from _load_objects(client, 4)
        return addrs

    (addrs,) = pool.run(before(sim))
    _record_posts(conn, log)
    pool.servers[0].crash()

    def during(sim):
        try:
            yield from client.gread_many(addrs)
        except ClientError as exc:
            return exc

    (exc,) = pool.run(during(sim))
    assert WcStatus.RETRY_EXCEEDED.name in str(exc)
    failed_lanes = {lane for lane, p in log.procs
                    if p.value.status is WcStatus.RETRY_EXCEEDED}
    assert failed_lanes == set(range(len(conn.lanes)))

    pool.servers[0].recover()
    pool.master.on_server_recovered(0)
    log.procs.clear()

    def after(sim):
        yield from client.reattach_server(0)
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(after(sim))
    assert values == [bytes([i]) * 128 for i in range(4)]
    healed = {lane for lane, p in log.procs
              if p.value.status is WcStatus.SUCCESS}
    assert healed == set(range(len(conn.lanes)))
