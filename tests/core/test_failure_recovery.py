"""Tests for server crash/recovery: the NVM durability story.

The contract: everything a client ``gsync``'ed before the crash survives in
NVM; writes still staged in the (DRAM) proxy ring are lost and reported back
to the client at re-attach; the DRAM cache and the lock table evaporate and
the directory is reconciled.
"""

import pytest

from repro.core import ClientError
from repro.core.consistency import LockError
from repro.core.addressing import offset_of
from repro.faults import FaultPlan, ServerCrash, ServerRecover
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

    A drain stall holds the whole burst in the ring (clients still get
    DRAM-latency acks), and the crash comes from *inside* the simulation
    right after the last ack, while the stall still holds — so the backlog
    does not depend on how fast the drain is.
    """
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=64))
    client = pool.clients[0]
    burst = 24
    size = 4000  # fits a 4 KiB ring slot
    payloads = {i: bytes([0xA0 + (i % 16)]) * size for i in range(burst)}

    def before(sim):
        synced = yield from client.gmalloc(128)
        yield from client.gwrite(synced, b"SYNCED" + bytes(122))
        yield from client.gsync()
        staged = []
        for _ in range(burst):  # allocate first: the burst must be pure writes
            staged.append((yield from client.gmalloc(size)))
        pool.servers[0].stall_drains(1_000_000)
        for i, g in enumerate(staged):
            yield from client.gwrite(g, payloads[i])
        # Crash at this very instant: the stalled drain holds the ring.
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


def test_crash_during_overlapped_drain_reports_every_frame_not_in_nvm():
    """A server crash while a backed-up ring is drained overlapped: some
    frames reached NVM, some were mid-write, some still waited for a
    writer.  The lost set reported at re-attach covers every staged write
    whose bytes are not in NVM, and a write after re-attach is not
    overtaken by anything left over from before the crash."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=16,
                                              enable_cache=False))
    client, server = pool.clients[0], pool.servers[0]
    burst, size, stall = 12, 4000, 100_000
    payloads = [bytes([0xB0 + i]) * size for i in range(burst)]

    def before(sim):
        staged = []
        for _ in range(burst):
            staged.append((yield from client.gmalloc(size)))
        server.stall_drains(stall)
        # Crash a few writes' worth after the stall lifts: mid-overlap.
        crash_at = sim.now + stall + 10_000
        sim.schedule(crash_at - sim.now, server.crash)
        for i, g in enumerate(staged):
            yield from client.gwrite(g, payloads[i])
        yield crash_at + 20_000 - sim.now  # the writes in flight finish
        return staged

    (staged,) = pool.run(before(sim))
    assert not server.is_alive
    landed = [server.data_device.peek(offset_of(g), size) == payloads[i]
              for i, g in enumerate(staged)]
    assert any(landed) and not all(landed)
    assert landed.index(False) >= server.data_device.spec.channels
    server.recover()
    pool.master.on_server_recovered(0)
    holder = {}

    def reattach(sim):
        holder["lost"] = yield from client.reattach_server(0)

    pool.run(reattach(sim))
    for i, g in enumerate(staged):
        if not landed[i]:
            assert g in holder["lost"], i
    assert not server._applying and not server._drain_ready

    victim = staged[-1]

    def after(sim):
        yield from client.gwrite(victim, b"NEW!" * (size // 4))
        yield from client.gsync()
        yield sim.timeout(50_000)
        return (yield from client.gread(victim, length=4))

    (data,) = pool.run(after(sim))
    assert data == b"NEW!"
    assert server.data_device.peek(offset_of(victim), 4) == b"NEW!"


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


def test_an_unlock_after_a_restart_zeroed_the_lock_table_fails_unwrapped():
    """Without leases, a write-unlock releases by CAS against the word it
    installed: the restart zeroed it, so the unlock raises LockError and
    the word stays 0 instead of wrapping below zero."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config())
    client, server = pool.clients[0], pool.servers[0]

    def before(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.glock(gaddr, write=True)
        return gaddr

    (gaddr,) = pool.run(before(sim))
    crash_and_recover(pool, sim, client)

    def unlock(sim):
        try:
            yield from client.gunlock(gaddr, write=True)
        except LockError as exc:
            return str(exc)

    (message,) = pool.run(unlock(sim))
    assert "not held by this client" in message
    lock_idx = pool.master.directory.get(gaddr).lock_idx
    assert server.lock_mr.peek(lock_idx * 8, 8) == bytes(8)


@pytest.mark.parametrize("relocked", [False, True], ids=["zeroed", "relocked"])
def test_an_unlock_after_an_outage_ridden_out_leaves_the_word(relocked):
    """A read can ride out a server restart and finish on the recovered
    server with no re-attach in between.  The holder's unlock then meets a
    word the restart zeroed, or one another client has locked since: it
    raises LockError and leaves the word exactly as it found it."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=fast_config())
    holder, other = pool.clients
    server = pool.servers[0]

    def before(sim):
        gaddr = yield from holder.gmalloc(64)
        yield from holder.gwrite(gaddr, b"L" * 64)
        yield from holder.gsync()
        yield from holder.glock(gaddr, write=True)
        return gaddr

    (gaddr,) = pool.run(before(sim))
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ServerCrash(at_ns=t0 + 5_000, server_id=0),
        ServerRecover(at_ns=t0 + 200_000, server_id=0),
    ))

    def ride_out(sim):
        yield sim.timeout(10_000)  # inside the outage
        return (yield from holder.gread(gaddr))

    (data,) = pool.run(ride_out(sim))
    assert data == b"L" * 64
    assert holder.m_retries.count > 0
    assert holder.m_failovers.count == 0  # no re-attach landed
    if relocked:
        pool.run(other.glock(gaddr, write=True))
    lock_idx = pool.master.directory.get(gaddr).lock_idx
    word = server.lock_mr.peek(lock_idx * 8, 8)
    assert (word != bytes(8)) == relocked

    def unlock(sim):
        try:
            yield from holder.gunlock(gaddr, write=True)
        except LockError as exc:
            return str(exc)

    (message,) = pool.run(unlock(sim))
    assert "not held by this client" in message
    assert server.lock_mr.peek(lock_idx * 8, 8) == word


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
        config=fast_config(client_lease_ns=LEASE))
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
