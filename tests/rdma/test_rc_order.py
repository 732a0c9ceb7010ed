"""RC order at the responder: the send gate orders injection only, so WQEs
on one QP fly concurrently and the responder applies the ordered ones (every
opcode but RDMA_READ) by sequence number.

Each test posts back-to-back WQEs whose arrival or target work overlaps, so
order holds only because of the responder's cursor, and checks that every
way out of a turn — applied, remote fault, dead peer — passes it on.
"""

from repro.rdma import Opcode, WcStatus, WorkRequest

from tests.core.conftest import build_pool


def _spike_first(rig, extra_ns):
    """Fault hook: the first a -> b message flies ``extra_ns`` longer."""
    hits = []

    def hook(src, dst, nbytes):
        if src == "a":
            hits.append(nbytes)
            if len(hits) == 1:
                return False, extra_ns
        return False, 0

    rig.fabric.set_fault_hook(hook)
    return hits


def _write(remote, data, rkey=None):
    return WorkRequest(opcode=Opcode.RDMA_WRITE, inline_data=data,
                       remote_rkey=remote.rkey if rkey is None else rkey,
                       remote_offset=0)


def test_write_imm_after_a_large_write_sees_it_placed(rig):
    """A 0-byte WRITE_IMM posted right behind a 4 KiB WRITE arrives ~256 ns
    after it, long before the 4 KiB is in target memory; its receive
    completion must still see every byte."""
    payload = bytes(range(256)) * 16
    src = rig.ep_a.register_mr(rig.mem_a, base=0, length=len(payload))
    src.poke(0, payload)
    dst = rig.ep_b.register_mr(rig.mem_b, base=0, length=len(payload))
    notice = rig.ep_b.register_mr(rig.mem_b, base=8192, length=64)
    rig.qp_b.post_recv(notice, wr_id=1)
    assert rig.mem_b.write_service_time(len(payload)) > 256

    def receiver(sim):
        wc = yield from rig.qp_b.recv_cq.wait()
        return wc, dst.peek(0, len(payload))

    def sender(sim):
        big, imm = rig.qp_a.post_send_many([
            WorkRequest(opcode=Opcode.RDMA_WRITE, local_mr=src, length=len(payload),
                        remote_rkey=dst.rkey, remote_offset=0),
            WorkRequest(opcode=Opcode.RDMA_WRITE_IMM, remote_rkey=dst.rkey,
                        remote_offset=0, length=0, imm_data=7),
        ])
        return (yield big), (yield imm)

    recv_proc = rig.sim.spawn(receiver(rig.sim))
    big_wc, imm_wc = rig.run(sender(rig.sim))
    wc, seen = recv_proc.value
    assert big_wc.ok and imm_wc.ok and wc.imm_data == 7
    assert seen == payload


def test_a_delayed_write_is_still_applied_first(rig):
    """A latency spike on message k lets k+1 arrive first; the responder
    holds k+1 until k is applied, so the later value wins."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    hits = _spike_first(rig, 5_000)

    def proc(sim):
        first, second = rig.qp_a.post_send_many(
            [_write(remote, b"AAAA"), _write(remote, b"BBBB")])
        return (yield first), (yield second)

    first, second = rig.run(proc(rig.sim))
    assert len(hits) == 2 and first.ok and second.ok
    assert remote.peek(0, 4) == b"BBBB"
    assert second.timestamp >= first.timestamp
    assert rig.qp_b._turns == {}


def test_a_remote_fault_passes_the_turn_on(rig):
    """WQE k faults at the target (bad rkey) after k+1 arrived: k+1 waits for
    it, then applies."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    _spike_first(rig, 5_000)

    def proc(sim):
        bad, good = rig.qp_a.post_send_many(
            [_write(remote, b"XXXX", rkey=0xBAD), _write(remote, b"GOOD")])
        return (yield bad), (yield good)

    bad, good = rig.run(proc(rig.sim))
    assert bad.status is WcStatus.REMOTE_ACCESS_ERROR
    assert good.ok and remote.peek(0, 4) == b"GOOD"


def test_back_to_back_reads_are_not_serialized_at_the_responder(rig):
    """READs take no sequence number: N of them overlap at the target, so
    they complete closer together than one target memory read."""
    size, n = 4096, 4
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=n * size)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=n * size)
    apply_ns = rig.mem_b.read_service_time(size)

    def proc(sim):
        done = rig.qp_a.post_send_many([
            WorkRequest(opcode=Opcode.RDMA_READ, local_mr=local,
                        local_offset=i * size, length=size,
                        remote_rkey=remote.rkey, remote_offset=i * size)
            for i in range(n)])
        wcs = []
        for ev in done:
            wcs.append((yield ev))
        return wcs

    wcs = rig.run(proc(rig.sim))
    assert all(wc.ok for wc in wcs)
    gaps = [b.timestamp - a.timestamp for a, b in zip(wcs, wcs[1:])]
    assert all(0 < gap < apply_ns for gap in gaps), (gaps, apply_ns)


def test_a_wqe_lost_to_a_dead_server_does_not_block_the_next_one():
    """An ordered WQE that completes RETRY_EXCEEDED against a crashed server
    still passes its turn on: after recovery and ``reattach_server`` the
    client's next staged write and sync go through instead of hanging."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    (conn,) = client._conns.values()

    def before(sim):
        g = yield from client.gmalloc(128)
        yield from client.gwrite(g, b"a" * 128)
        yield from client.gsync()
        return g

    (g,) = pool.run(before(sim))
    pool.servers[0].crash()

    def during(sim):
        wc = yield conn.data_qp.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE, inline_data=b"lost", remote_rkey=0,
            remote_offset=0))
        return wc

    (wc,) = pool.run(during(sim))
    assert wc.status is WcStatus.RETRY_EXCEEDED

    pool.servers[0].recover()
    pool.master.on_server_recovered(0)

    def after(sim):
        yield from client.reattach_server(0)
        yield from client.gwrite(g, b"b" * 128)
        yield from client.gsync()
        value = yield from client.gread(g)
        return value

    (value,) = pool.run(after(sim), max_events=200_000)
    assert value == b"b" * 128
