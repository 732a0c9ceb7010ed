"""Tests for server crash/recovery: the NVM durability story.

The contract: everything a client ``gsync``'ed before the crash survives in
NVM; writes still staged in the (DRAM) proxy ring are lost and reported back
to the client at re-attach; the DRAM cache and the lock table evaporate and
the directory is reconciled.
"""

import pytest

from repro.core import ClientError
from repro.rdma.wr import WcStatus

from tests.core.conftest import build_pool, fast_config


def crash_and_recover(pool, sim, client, server_id=0):
    """Standard recovery sequence; returns the client's lost writes."""
    pool.servers[server_id].crash()
    pool.servers[server_id].recover()
    pool.master.on_server_recovered(server_id)
    holder = {}

    def reattach(sim):
        holder["lost"] = yield from client.reattach_server(server_id)

    pool.run(reattach(sim))
    return holder["lost"]


def test_synced_data_survives_a_crash():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def before(sim):
        gaddr = yield from client.gmalloc(256)
        yield from client.gwrite(gaddr, b"durable!" + bytes(248))
        yield from client.gsync()  # reaches NVM
        return gaddr

    (gaddr,) = pool.run(before(sim))
    lost = crash_and_recover(pool, sim, client)
    assert lost == []

    def after(sim):
        data = yield from client.gread(gaddr, length=8)
        return data

    (data,) = pool.run(after(sim))
    assert data == b"durable!"


def test_unsynced_staged_writes_are_lost_and_reported():
    """Crash with a drain backlog: the ring's staged writes never reach NVM.

    A single small write drains within a microsecond, so to strand data we
    burst writes faster than the Optane drain and crash from *inside* the
    simulation right after the last ack.
    """
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=64))
    client = pool.clients[0]
    burst = 24
    size = 4000  # fits a 4 KiB ring slot; drain (NVM) is slower than acks
    payloads = {i: bytes([0xA0 + (i % 16)]) * size for i in range(burst)}

    def before(sim):
        synced = yield from client.gmalloc(128)
        yield from client.gwrite(synced, b"SYNCED" + bytes(122))
        yield from client.gsync()
        staged = []
        for _ in range(burst):  # allocate first: the burst must be pure writes
            staged.append((yield from client.gmalloc(size)))
        for i, g in enumerate(staged):
            yield from client.gwrite(g, payloads[i])
        # Crash at this very instant: the drain is still working the ring.
        pool.servers[0].crash()
        return synced, staged

    (result,) = pool.run(before(sim))
    synced, staged = result
    pool.servers[0].recover()
    pool.master.on_server_recovered(0)
    holder = {}

    def reattach(sim):
        holder["lost"] = yield from client.reattach_server(0)

    pool.run(reattach(sim))
    lost = holder["lost"]
    assert synced not in lost
    assert lost, "a 24-write burst must leave undrained entries behind"

    def after(sim):
        ok = yield from client.gread(synced, length=6)
        contents = []
        for i, g in enumerate(staged):
            data = yield from client.gread(g, length=size)
            contents.append(data == payloads[i])
        return ok, contents

    (result,) = pool.run(after(sim))
    ok, contents = result
    assert ok == b"SYNCED"
    # At least one staged write truly never reached NVM...
    assert not all(contents)
    # ...and every one of those is covered by the reported lost set
    # (the report is a conservative over-approximation).
    for i, survived in enumerate(contents):
        if not survived:
            assert staged[i] in lost


def test_ops_fail_while_server_is_down():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def before(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, bytes(64))
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(before(sim))
    pool.servers[0].crash()

    def during(sim):
        try:
            yield from client.gread(gaddr)
        except ClientError as exc:
            return str(exc)

    (msg,) = pool.run(during(sim))
    assert WcStatus.RETRY_EXCEEDED.name in msg


def test_cache_rebuilds_after_recovery():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def before(sim):
        gaddr = yield from client.gmalloc(512)
        yield from client.gwrite(gaddr, b"hot" + bytes(509))
        yield from client.gsync()
        yield from pool.master.pin(gaddr)
        return gaddr

    (gaddr,) = pool.run(before(sim))
    assert pool.master.directory.get(gaddr).cached
    lost = crash_and_recover(pool, sim, client)
    assert lost == []
    record = pool.master.directory.get(gaddr)
    assert not record.cached  # the DRAM copy evaporated
    assert not record.pinned  # pins don't survive the holder's DRAM
    assert pool.servers[0].cache_used_bytes == 0

    def after(sim):
        data = yield from client.gread(gaddr, length=3)  # served from NVM
        yield from pool.master.pin(gaddr)  # re-pin works
        return data

    (data,) = pool.run(after(sim))
    assert data == b"hot"
    assert pool.master.directory.get(gaddr).cached


def test_locks_are_released_by_a_crash():
    """The lock table lives in DRAM: a crash frees every lock."""
    sim, pool = build_pool(num_servers=1, num_clients=2)
    a, b = pool.clients

    def before(sim):
        gaddr = yield from a.gmalloc(64)
        yield from a.gwrite(gaddr, bytes(64))
        yield from a.gsync()
        yield from a.glock(gaddr, write=True)
        return gaddr

    (gaddr,) = pool.run(before(sim))
    crash_and_recover(pool, sim, a)

    def reattach_b(sim):
        yield from b.reattach_server(0)

    pool.run(reattach_b(sim))

    def contender(sim):
        yield from b.glock(gaddr, write=True)  # must not block forever
        yield from b.gunlock(gaddr, write=True)
        return "acquired"

    (outcome,) = pool.run(contender(sim))
    assert outcome == "acquired"


def test_proxy_works_again_after_reattach():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def before(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, b"one" + bytes(125))
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(before(sim))
    crash_and_recover(pool, sim, client)

    def after(sim):
        yield from client.gwrite(gaddr, b"two" + bytes(125))
        yield from client.gsync()
        data = yield from client.gread(gaddr, length=3)
        return data

    (data,) = pool.run(after(sim))
    assert data == b"two"
    assert client.m_proxy_writes.count >= 2  # the new ring carries writes


def test_crash_only_affects_that_server():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]

    def setup(sim):
        # One object per server.
        a = yield from client.gmalloc(64)
        b = yield from client.gmalloc(64)
        yield from client.gwrite(a, b"AA" + bytes(62))
        yield from client.gwrite(b, b"BB" + bytes(62))
        yield from client.gsync()
        return a, b

    (result,) = pool.run(setup(sim))
    obj_a, obj_b = result
    from repro.core import server_of

    dead_sid = server_of(obj_a)
    live_obj = obj_b if server_of(obj_b) != dead_sid else obj_a
    pool.servers[dead_sid].crash()

    def during(sim):
        data = yield from client.gread(live_obj, length=2)
        return data

    (data,) = pool.run(during(sim))
    assert data in (b"AA", b"BB")


def test_double_crash_is_idempotent():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    server = pool.servers[0]
    server.crash()
    server.crash()  # no-op
    assert server.crashes == 1
    server.recover()
    assert server.is_alive


def test_repeated_crash_recover_cycles_do_not_leak():
    """Five power cycles must not leak DRAM carves, MRs, or drain loops.

    Each re-attach registers a fresh ring MR and spawns a fresh drain loop;
    the crash path must fully retire the previous generation (and reuse the
    carved ring span) or a long-lived server bleeds resources one outage at
    a time.
    """
    sim, pool = build_pool(num_servers=1, num_clients=2)
    server = pool.servers[0]
    endpoint = server.node.endpoint
    a, b = pool.clients

    def cycle():
        server.crash()
        server.recover()
        pool.master.on_server_recovered(0)

        def reattach(sim):
            yield from a.reattach_server(0)
            yield from b.reattach_server(0)

        pool.run(reattach(sim))

    cycle()  # first cycle settles any lazily-carved state
    mrs = len(endpoint._mrs)
    carved = server._carver._next
    assert len(server._drain_loops) == 2  # one live drain loop per client

    for _ in range(4):
        cycle()

    assert len(endpoint._mrs) == mrs
    assert server._carver._next == carved  # ring spans are reused, not re-carved
    assert len(server._drain_loops) == 2
    assert server.cache_alloc.allocated_bytes == 0  # cache allocator reset

    def app(sim):
        gaddr = yield from a.gmalloc(64)
        yield from a.gwrite(gaddr, b"alive!" + bytes(58))
        yield from a.gsync()
        data = yield from b.gread(gaddr, length=6)
        return data

    (data,) = pool.run(app(sim))
    assert data == b"alive!"
    assert server.crashes == 5


def test_client_death_frees_ring_resources():
    """Three kill → lease-expiry → revive → rejoin cycles must not leak
    server-side ring MRs, DRAM carves, or drain loops: lease expiry retires
    the dead client's ring, and the rejoin reuses the parked span."""
    LEASE = 100_000
    sim, pool = build_pool(
        num_servers=1, num_clients=2,
        config=fast_config(client_lease_ns=LEASE, auto_reattach=True,
                           retry_max_attempts=3))
    server = pool.servers[0]
    endpoint = server.node.endpoint
    a, b = pool.clients

    def cycle():
        a.crash()

        def wait(sim):
            yield sim.timeout(3 * LEASE)  # lease lapses; ring retired

        pool.run(wait(sim))
        assert "client0" not in server._rings
        assert len(server._drain_loops) == 1
        a.revive()

        def rejoin(sim):
            yield from a.reattach_master()
            yield from a.reattach_server(0)

        pool.run(rejoin(sim))

    cycle()  # first cycle settles any lazily-carved state
    mrs = len(endpoint._mrs)
    carved = server._carver._next
    assert len(server._drain_loops) == 2

    for _ in range(2):
        cycle()

    assert len(endpoint._mrs) == mrs
    assert server._carver._next == carved  # spans reused, never re-carved
    assert len(server._drain_loops) == 2
    assert pool.master.lease_expiries.count == 3

    def app(sim):
        gaddr = yield from a.gmalloc(64)
        yield from a.gwrite(gaddr, b"alive!" + bytes(58))
        yield from a.gsync()
        data = yield from b.gread(gaddr, length=6)
        return data

    (data,) = pool.run(app(sim))
    assert data == b"alive!"
