"""Tests for one-sided and two-sided verbs: data movement and semantics."""

import pytest

from repro.rdma import AccessFlags, Opcode, QpError, WcStatus, WorkRequest, connect
from repro.rdma.mr import MrError


# ---------------------------------------------------------------------------
# Memory regions
# ---------------------------------------------------------------------------
def test_register_mr_and_peek_poke(rig):
    mr = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)
    mr.poke(100, b"hello")
    assert mr.peek(100, 5) == b"hello"


def test_mr_bounds_enforced(rig):
    mr = rig.ep_a.register_mr(rig.mem_a, base=0, length=128)
    with pytest.raises(MrError):
        mr.peek(120, 16)
    with pytest.raises(MrError):
        rig.ep_a.register_mr(rig.mem_a, base=0, length=rig.mem_a.capacity + 1)


def test_mr_u64_helpers(rig):
    mr = rig.ep_a.register_mr(rig.mem_a, base=0, length=64)
    mr.write_u64(8, 0xDEADBEEF)
    assert mr.read_u64(8) == 0xDEADBEEF


def test_deregistered_mr_not_resolvable(rig):
    mr = rig.ep_b.register_mr(rig.mem_b, base=0, length=64)
    assert rig.ep_b.resolve_rkey(mr.rkey) is mr
    rig.ep_b.deregister_mr(mr)
    assert rig.ep_b.resolve_rkey(mr.rkey) is None


# ---------------------------------------------------------------------------
# RDMA READ
# ---------------------------------------------------------------------------
def test_rdma_read_fetches_remote_bytes(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)
    remote.poke(256, b"remote-data!")

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ,
            local_mr=local, local_offset=0, length=12,
            remote_rkey=remote.rkey, remote_offset=256,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.ok and wc.byte_len == 12
    assert local.peek(0, 12) == b"remote-data!"


def test_rdma_read_takes_a_full_round_trip(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)

    def proc(sim):
        start = sim.now
        yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=local, length=64,
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        return sim.now - start

    elapsed = rig.run(proc(rig.sim))
    # At minimum: two propagation delays + NIC processing on both sides.
    min_rtt = 2 * 500 + 2 * 250
    assert elapsed >= min_rtt
    assert elapsed < 10_000  # and stays in the microsecond regime


def test_rdma_read_does_not_consume_target_cpu(rig):
    """One-sided reads move data with zero software involvement at the
    target — no process other than the initiator's runs."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)

    def proc(sim):
        yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=local, length=64,
            remote_rkey=remote.rkey, remote_offset=0,
        ))

    rig.run(proc(rig.sim))
    # The target's memory device was read by the NIC (DMA), though.
    assert rig.mem_b.bytes_read.total == 64


def test_rdma_read_bad_rkey_gives_remote_access_error(rig):
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=local, length=8,
            remote_rkey=0xBAD, remote_offset=0,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.status is WcStatus.REMOTE_ACCESS_ERROR


def test_rdma_read_out_of_bounds_gives_remote_access_error(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=128)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=local, length=256,
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.status is WcStatus.REMOTE_ACCESS_ERROR


def test_rdma_read_respects_remote_read_flag(rig):
    remote = rig.ep_b.register_mr(
        rig.mem_b, base=0, length=128, access=AccessFlags.LOCAL | AccessFlags.REMOTE_WRITE
    )
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=local, length=8,
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.status is WcStatus.REMOTE_ACCESS_ERROR


# ---------------------------------------------------------------------------
# RDMA WRITE
# ---------------------------------------------------------------------------
def test_rdma_write_places_bytes_remotely(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)
    local.poke(0, b"write-me")

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE,
            local_mr=local, local_offset=0, length=8,
            remote_rkey=remote.rkey, remote_offset=512,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.ok and wc.byte_len == 8
    assert remote.peek(512, 8) == b"write-me"


def test_rdma_write_inline_payload(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE,
            inline_data=b"inline!",
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.ok
    assert remote.peek(0, 7) == b"inline!"


def test_inline_payload_over_limit_rejected_at_post(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    with pytest.raises(QpError):
        rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE,
            inline_data=b"x" * 1000,  # over the 220 B inline limit
            remote_rkey=remote.rkey,
        ))


def test_rdma_write_to_read_only_region_faults(rig):
    remote = rig.ep_b.register_mr(
        rig.mem_b, base=0, length=128, access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ
    )

    def proc(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE, inline_data=b"nope",
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        return wc

    wc = rig.run(proc(rig.sim))
    assert wc.status is WcStatus.REMOTE_ACCESS_ERROR
    assert remote.peek(0, 4) == b"\x00\x00\x00\x00"  # nothing written


def test_two_writes_same_qp_arrive_in_order(rig):
    """RC ordering: back-to-back writes to the same location land in post
    order, so the second value wins."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)

    def proc(sim):
        first = rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE, inline_data=b"AAAA",
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        second = rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE, inline_data=b"BBBB",
            remote_rkey=remote.rkey, remote_offset=0,
        ))
        yield first
        yield second

    rig.run(proc(rig.sim))
    assert remote.peek(0, 4) == b"BBBB"


# ---------------------------------------------------------------------------
# WRITE_WITH_IMM
# ---------------------------------------------------------------------------
def test_write_with_imm_raises_receiver_completion_after_placement(rig):
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    scratch = rig.ep_b.register_mr(rig.mem_b, base=8192, length=64)
    rig.qp_b.post_recv(scratch, wr_id=77)

    def receiver(sim):
        wc = yield from rig.qp_b.recv_cq.wait()
        # Data must be visible at the written location before the completion.
        return wc, remote.peek(0, 4)

    def sender(sim):
        yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE_IMM, inline_data=b"DATA",
            remote_rkey=remote.rkey, remote_offset=0, imm_data=42,
        ))

    recv_proc = rig.sim.spawn(receiver(rig.sim))
    rig.sim.spawn(sender(rig.sim))
    rig.sim.run()
    wc, seen = recv_proc.value
    assert wc.imm_data == 42
    assert wc.wr_id == 77
    assert wc.byte_len == 4
    assert seen == b"DATA"


# ---------------------------------------------------------------------------
# SEND / RECV
# ---------------------------------------------------------------------------
def test_send_lands_in_posted_recv_buffer(rig):
    recv_buf = rig.ep_b.register_mr(rig.mem_b, base=0, length=256)
    rig.qp_b.post_recv(recv_buf, offset=0, length=256, wr_id=5)

    def receiver(sim):
        wc = yield from rig.qp_b.recv_cq.wait()
        return wc

    def sender(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(opcode=Opcode.SEND, inline_data=b"ping"))
        return wc

    recv_proc = rig.sim.spawn(receiver(rig.sim))
    send_proc = rig.sim.spawn(sender(rig.sim))
    rig.sim.run()
    assert send_proc.value.ok
    wc = recv_proc.value
    assert wc.wr_id == 5
    assert wc.byte_len == 4
    assert recv_buf.peek(0, 4) == b"ping"
    assert wc.context["src_qp"] == rig.qp_a.qp_num


def test_send_blocks_until_recv_posted(rig):
    recv_buf = rig.ep_b.register_mr(rig.mem_b, base=0, length=256)
    times = {}

    def sender(sim):
        yield rig.qp_a.post_send(WorkRequest(opcode=Opcode.SEND, inline_data=b"late"))
        times["send_done"] = sim.now

    def poster(sim):
        yield sim.timeout(50_000)
        rig.qp_b.post_recv(recv_buf, wr_id=1)

    rig.sim.spawn(sender(rig.sim))
    rig.sim.spawn(poster(rig.sim))
    rig.sim.run()
    assert times["send_done"] >= 50_000  # RNR until the buffer appeared


def test_send_too_big_for_recv_buffer_fails(rig):
    recv_buf = rig.ep_b.register_mr(rig.mem_b, base=0, length=256)
    rig.qp_b.post_recv(recv_buf, offset=0, length=4, wr_id=1)

    def sender(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(opcode=Opcode.SEND, inline_data=b"too big"))
        return wc

    wc = rig.run(sender(rig.sim))
    assert wc.status is WcStatus.REMOTE_INVALID_REQUEST


def test_send_from_registered_memory(rig):
    payload = bytes(range(256)) * 4  # 1 KiB, above inline threshold
    src = rig.ep_a.register_mr(rig.mem_a, base=0, length=2048)
    src.poke(0, payload)
    dst = rig.ep_b.register_mr(rig.mem_b, base=0, length=2048)
    rig.qp_b.post_recv(dst, wr_id=9)

    def sender(sim):
        wc = yield rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.SEND, local_mr=src, local_offset=0, length=len(payload)
        ))
        return wc

    wc = rig.run(sender(rig.sim))
    assert wc.ok
    assert dst.peek(0, len(payload)) == payload


def test_a_bad_local_buffer_completes_in_error_and_frees_the_send_gate(rig):
    """The gather fails inside the send gate: the verb's process returns the
    error completion from there, the gate goes to the WR parked behind it,
    and both posters hear back."""
    src = rig.ep_a.register_mr(rig.mem_a, base=0, length=2048)
    src.poke(0, b"x" * 1024)
    dst = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)

    def write(local_offset):
        return WorkRequest(opcode=Opcode.RDMA_WRITE, local_mr=src,
                           local_offset=local_offset, length=1024,
                           remote_rkey=dst.rkey, remote_offset=0)

    def poster(sim):
        bad, good = rig.qp_a.post_send_many([write(1500), write(0)])  # 1500 + 1024 > 2048
        return (yield bad), (yield good)

    bad_wc, good_wc = rig.run(poster(rig.sim))
    assert bad_wc.status is WcStatus.LOCAL_PROTECTION_ERROR
    assert bad_wc.timestamp < good_wc.timestamp
    assert good_wc.ok and dst.peek(0, 1024) == b"x" * 1024
    assert rig.qp_a._send_gate.in_use == 0


# ---------------------------------------------------------------------------
# Posting errors
# ---------------------------------------------------------------------------
def test_unconnected_qp_rejects_post(rig):
    from repro.rdma.qp import QueuePair

    lone = QueuePair(rig.ep_a, recv_cq=rig.ep_a.create_cq())
    with pytest.raises(QpError):
        lone.post_send(WorkRequest(opcode=Opcode.SEND, inline_data=b"x"))


def test_recv_opcode_rejected_on_send_queue(rig):
    with pytest.raises(QpError):
        rig.qp_a.post_send(WorkRequest(opcode=Opcode.RECV))


def test_connect_self_rejected(rig):
    with pytest.raises(QpError):
        connect(rig.ep_a, rig.ep_a)
