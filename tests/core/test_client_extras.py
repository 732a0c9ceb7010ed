"""Tests for batched operations, huge-object chunking, and lock recovery."""

import pytest

from repro.core import ClientError

from tests.core.conftest import build_pool, fast_config


def test_gread_many_returns_in_argument_order():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for i in range(6):
            g = yield from client.gmalloc(128)
            yield from client.gwrite(g, bytes([i]) * 128)
            addrs.append(g)
        yield from client.gsync()
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i]) * 128 for i in range(6)]


def test_batched_reads_overlap_in_time():
    """N concurrent reads finish much faster than N sequential ones."""
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]
    n = 8

    def app(sim):
        addrs = []
        for i in range(n):
            g = yield from client.gmalloc(1024)
            yield from client.gwrite(g, bytes([i]) * 1024)
            addrs.append(g)
        yield from client.gsync()
        t0 = sim.now
        for g in addrs:
            yield from client.gread(g)
        sequential = sim.now - t0
        t0 = sim.now
        yield from client.gread_many(addrs)
        batched = sim.now - t0
        return sequential, batched

    (result,) = pool.run(app(sim))
    sequential, batched = result
    assert batched < sequential * 0.7


def _concurrent_writes(client, writes):
    """Process helper: one gwrite process per ``(gaddr, data)``, all in
    flight at once; returns when every one has completed."""
    sim = client.sim
    yield sim.all_of([sim.spawn(client.gwrite(g, data)) for g, data in writes])


def test_concurrent_writes_past_ring_depth_all_land():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=4))
    client = pool.clients[0]
    n = 12  # more concurrent writes than ring slots: exercises flow control

    def app(sim):
        addrs = []
        for _ in range(n):
            addrs.append((yield from client.gmalloc(512)))
        yield from _concurrent_writes(
            client, [(g, bytes([i]) * 512) for i, g in enumerate(addrs)]
        )
        yield from client.gsync()
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i]) * 512 for i in range(n)]


def test_concurrent_proxy_writes_use_distinct_ring_slots():
    """The slot-reservation fix: concurrent writers never collide."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=16))
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for _ in range(8):
            addrs.append((yield from client.gmalloc(256)))
        yield from _concurrent_writes(
            client, [(g, bytes([i + 1]) * 256) for i, g in enumerate(addrs)]
        )
        yield from client.gsync()
        out = yield from client.gread_many(addrs)
        return out

    (values,) = pool.run(app(sim))
    assert values == [bytes([i + 1]) * 256 for i in range(8)]
    assert pool.servers[0].drain.drained_writes.count == 8


def test_huge_object_read_write_chunked():
    """Objects larger than one transfer (256 KiB) work transparently."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    size = 600 * 1024  # 2.3 transfers
    payload = bytes(range(256)) * (size // 256)

    def app(sim):
        gaddr = yield from client.gmalloc(size)
        yield from client.gwrite(gaddr, payload)
        yield from client.gsync()
        data = yield from client.gread(gaddr)
        return gaddr, data

    (result,) = pool.run(app(sim))
    _gaddr, data = result
    assert data == payload


def test_pin_survives_planner_epochs():
    """Pinned objects stay cached even with zero traffic (E1's guarantee)."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(256)
        yield from client.gwrite(gaddr, b"p" * 256)
        yield from client.gsync()
        yield from pool.master.pin(gaddr)
        yield sim.timeout(500_000)  # many idle epochs
        return gaddr

    (gaddr,) = pool.run(app(sim))
    assert pool.master.directory.get(gaddr).cached


def test_batch_read_failure_propagates():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        good = yield from client.gmalloc(64)
        yield from client.gwrite(good, bytes(64))
        try:
            yield from client.gread_many([good, 0xDEAD0000])
        except Exception:
            return "failed"

    (outcome,) = pool.run(app(sim))
    assert outcome == "failed"
