"""Edge-case tests for completion queues and QP ordering semantics."""

from repro.rdma import Opcode, WorkRequest
from repro.rdma.cq import CompletionQueue
from repro.rdma.wr import WorkCompletion
from repro.sim import Simulator


def test_poll_empty_cq_returns_nothing():
    sim = Simulator()
    cq = CompletionQueue(sim)
    assert cq.poll() == []
    assert len(cq) == 0


def test_poll_respects_max_entries():
    sim = Simulator()
    cq = CompletionQueue(sim)
    for i in range(10):
        cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
    sim.run()
    first = cq.poll(max_entries=3)
    assert [wc.wr_id for wc in first] == [0, 1, 2]
    rest = cq.poll(max_entries=100)
    assert [wc.wr_id for wc in rest] == list(range(3, 10))


def test_push_stamps_virtual_time():
    sim = Simulator()
    cq = CompletionQueue(sim)
    sim.schedule(777, lambda: cq.push(WorkCompletion(wr_id=1, opcode=Opcode.SEND)))
    sim.run()
    (wc,) = cq.poll()
    assert wc.timestamp == 777
    assert cq.completions.count == 1


def test_wait_blocks_until_completion_arrives():
    sim = Simulator()
    cq = CompletionQueue(sim)
    got = []

    def waiter(sim):
        wc = yield from cq.wait()
        got.append((wc.wr_id, sim.now))

    sim.spawn(waiter(sim))
    sim.schedule(512, lambda: cq.push(WorkCompletion(wr_id=9, opcode=Opcode.RECV)))
    sim.run()
    assert got == [(9, 512)]


def test_mixed_poll_and_wait_consumers_fifo():
    sim = Simulator()
    cq = CompletionQueue(sim)
    got = []

    def waiter(sim):
        wc = yield from cq.wait()
        got.append(wc.wr_id)

    sim.spawn(waiter(sim))
    cq.push(WorkCompletion(wr_id=1, opcode=Opcode.SEND))
    cq.push(WorkCompletion(wr_id=2, opcode=Opcode.SEND))
    sim.run()
    # The blocked waiter got the first; the second is pollable.
    assert got == [1]
    assert [wc.wr_id for wc in cq.poll()] == [2]


def test_read_after_write_same_qp_sees_new_data(rig):
    """RC ordering: a READ posted after a WRITE on the same QP observes it."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=4096)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=4096)

    def proc(sim):
        write_done = rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_WRITE, inline_data=b"ORDERED!",
            remote_rkey=remote.rkey, remote_offset=100,
        ))
        read_done = rig.qp_a.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=local, local_offset=0, length=8,
            remote_rkey=remote.rkey, remote_offset=100,
        ))
        yield write_done
        yield read_done
        return local.peek(0, 8)

    data = rig.run(proc(rig.sim))
    assert data == b"ORDERED!"


def test_a_send_completion_is_delivered_by_the_returned_event_alone(rig):
    """There is no send CQ: what ``post_send`` returns — the verb's own
    process — fires with the completion, and no queue keeps a copy."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=256)
    done = rig.qp_a.post_send(WorkRequest(
        opcode=Opcode.RDMA_WRITE, inline_data=b"cq",
        remote_rkey=remote.rkey, remote_offset=0, wr_id=42,
    ))
    assert not done.triggered

    def proc(sim):
        wc = yield done
        return wc, sim.now

    wc, woken_at = rig.run(proc(rig.sim))
    assert done.value is wc
    assert wc.wr_id == 42 and wc.ok and wc.timestamp == woken_at
    for qp in (rig.qp_a, rig.qp_b):
        assert not hasattr(qp, "send_cq")
        assert qp.recv_cq.poll() == [] and qp.recv_cq.completions.count == 0


def test_many_outstanding_reads_pipeline(rig):
    """Multiple posted READs overlap: total time well under N serial RTTs."""
    remote = rig.ep_b.register_mr(rig.mem_b, base=0, length=8192)
    local = rig.ep_a.register_mr(rig.mem_a, base=0, length=8192)
    n = 8

    def proc(sim):
        t0 = sim.now
        events = [
            rig.qp_a.post_send(WorkRequest(
                opcode=Opcode.RDMA_READ, local_mr=local, local_offset=i * 64,
                length=64, remote_rkey=remote.rkey, remote_offset=i * 64,
            ))
            for i in range(n)
        ]
        yield sim.all_of(events)
        return sim.now - t0

    elapsed = rig.run(proc(rig.sim))
    # One read takes ~1.9 us; 8 serial would be ~15 us.  Pipelined: far less.
    assert elapsed < 8_000
