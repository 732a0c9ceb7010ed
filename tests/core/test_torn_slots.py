"""Torn-slot detection: the per-slot commit word.

The contract under test: with ``proxy_commit=True`` each staged write
carries a trailing commit word binding (seq, frame); the drain loop applies
a slot only when the word checks out, so a client that died mid-RDMA_WRITE
can never smear half a payload into NVM.  The fault-free path is unchanged
except for 8 bytes of slot capacity.
"""

import pytest

from repro import obs
from repro.core.addressing import offset_of
from repro.core.protocol import (
    PROXY_COMMIT_BYTES,
    PROXY_HEADER_BYTES,
    pack_proxy_commit,
    pack_proxy_slot,
    proxy_commit_ok,
    proxy_payload_capacity,
)
from repro.faults import ClientCrash, FaultPlan

from tests.core.conftest import build_pool, fast_config

LEASE = 100_000


def commit_config(**overrides):
    defaults = dict(proxy_commit=True, client_lease_ns=LEASE)
    defaults.update(overrides)
    return fast_config(**defaults)


# ----------------------------------------------------------------------
# The commit word itself
# ----------------------------------------------------------------------
def test_commit_word_round_trip():
    frame = pack_proxy_slot(0x1000, 4, b"hello world")
    word = pack_proxy_commit(7, frame)
    assert len(word) == PROXY_COMMIT_BYTES
    assert proxy_commit_ok(word, 7, frame)


def test_commit_word_binds_the_sequence_number():
    frame = pack_proxy_slot(0x1000, 0, b"payload")
    word = pack_proxy_commit(3, frame)
    assert not proxy_commit_ok(word, 4, frame)  # a stale slot from last lap


def test_commit_word_binds_the_frame_bytes():
    frame = pack_proxy_slot(0x1000, 0, b"payload")
    word = pack_proxy_commit(3, frame)
    torn = frame[:-2] + b"\x00\x00"
    assert not proxy_commit_ok(word, 3, torn)
    assert not proxy_commit_ok(word[:4], 3, frame)  # truncated word


def test_commit_word_costs_eight_bytes_of_capacity():
    assert (proxy_payload_capacity(4096, commit=True)
            == proxy_payload_capacity(4096) - PROXY_COMMIT_BYTES)


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------
def test_fault_free_commit_path_drains_correctly():
    sim, pool = build_pool(num_servers=2, num_clients=2,
                           config=commit_config())
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for i in range(8):
            g = yield from client.gmalloc(512)
            yield from client.gwrite(g, bytes([i + 1]) * 512)
            addrs.append(g)
        yield from client.gsync()
        out = []
        for i, g in enumerate(addrs):
            data = yield from client.gread(g)
            out.append(data == bytes([i + 1]) * 512)
        return out

    (checks,) = pool.run(app(sim))
    assert all(checks)
    assert sum(s.torn_skipped.count for s in pool.servers.values()) == 0


def test_torn_slot_is_skipped_never_applied():
    """A client killed mid-RDMA_WRITE leaves a half-written slot; the drain
    loop must skip it (NVM keeps the last committed value) instead of
    applying the truncated frame."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=commit_config())
    c0, c1 = pool.clients
    payload = bytes(range(1, 129))  # distinctive, non-zero everywhere

    def setup(sim):
        g = yield from c0.gmalloc(128)
        yield from c0.gwrite(g, payload)
        yield from c0.gsync()
        return g

    (gaddr,) = pool.run(setup(sim))
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=sim.now + 1_000, client="client0",
                    tear_inflight=True),
    ))

    def observe(sim):
        yield sim.timeout(3 * LEASE)  # lease expiry + ring retirement too
        data = yield from c1.gread(gaddr)
        return data

    (data,) = pool.run(observe(sim))
    # The torn re-stage of the same payload was cut mid-frame; had it been
    # applied, NVM would now hold half the payload followed by zeros.
    assert data == payload
    server = pool.servers[0]
    assert server.torn_skipped.count == 1
    m = sim.metrics
    assert m.counter("faults.torn_injected").count == 1


def test_torn_writes_without_commit_word_go_undetected():
    """The negative control: with ``proxy_commit=False`` the same tear is
    applied as-is — exactly the corruption the commit word prevents."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=commit_config(proxy_commit=False))
    c0, c1 = pool.clients
    payload = bytes(range(1, 129))

    def setup(sim):
        g = yield from c0.gmalloc(128)
        yield from c0.gwrite(g, payload)
        yield from c0.gsync()
        return g

    (gaddr,) = pool.run(setup(sim))
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=sim.now + 1_000, client="client0",
                    tear_inflight=True),
    ))

    def observe(sim):
        yield sim.timeout(3 * LEASE)
        data = yield from c1.gread(gaddr)
        return data

    (data,) = pool.run(observe(sim))
    assert data != payload  # the half-written frame landed in NVM
    assert data[: len(payload) // 2] == payload[: len(payload) // 2]
    assert pool.servers[0].torn_skipped.count == 0


def test_torn_slot_in_a_backed_up_ring_is_stepped_over():
    """Backed up past half full, the drain overlaps its NVM writes; a torn
    frame in the middle of the backlog is judged against its own sequence
    number, skipped, the frames after it still apply, and the drained
    counter steps over it once the frames ahead of it are in."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=commit_config(enable_cache=False))
    rec = obs.install(sim)
    client, server = pool.clients[0], pool.servers[0]
    burst, torn_at, size = 6, 2, 1024

    def app(sim):
        addrs = []
        for _ in range(burst):
            addrs.append((yield from client.gmalloc(size)))
        server.stall_drains(30_000)
        first = client._conns[0].written
        for i, g in enumerate(addrs):
            yield from client.gwrite(g, bytes([i + 1]) * size)
        # Tear one staged frame while the drain is stalled: its commit word
        # no longer covers the payload.
        ring = server._rings[client.name]
        slot = (first + torn_at) % client._conns[0].ring.slots
        ring.mr.poke(slot * client._conns[0].ring.slot_size
                     + PROXY_HEADER_BYTES, b"\xff")
        yield from client.gsync()
        return addrs, first

    ((addrs, first),) = pool.run(app(sim))
    assert server.torn_skipped.count == 1
    for i, g in enumerate(addrs):
        want = bytes(size) if i == torn_at else bytes([i + 1]) * size
        assert server.data_device.peek(offset_of(g), size) == want, i
    ring = server._rings[client.name]
    assert ring.drained == first + burst == client._conns[0].written
    assert not ring.done
    (torn,) = [s for s in rec.by_name("srv.drain") if s.fields["torn"]]
    assert torn.fields["overlapped"]
