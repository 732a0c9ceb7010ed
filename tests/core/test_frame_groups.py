"""Frame groups: with the proxy on, a write larger than a slot still rides
the ring (docs/PROTOCOLS.md §3.2).

It is staged as consecutive frames, every one but the last carrying the
more-bit, and the drain applies the group once its last frame is in: one
NVM write and one cache refresh.  So an object of any size is cacheable,
a reader never sees half a write, and a group whose writer died between
frames — or one with a torn frame — never reaches NVM at all.
"""

from repro.core.addressing import offset_of
from repro.core.protocol import CACHE_TAG_BYTES, PROXY_HEADER_BYTES
from repro.faults import ClientCrash, FaultPlan

from tests.core.conftest import build_pool, fast_config

SIZE = 8 * 1024  # three frames under fast_config's 4 KiB slots
LEASE = 100_000


def _nvm(server, gaddr, size=SIZE):
    return server.data_device.peek(offset_of(gaddr), size)


def test_an_object_larger_than_a_slot_is_cached_and_stays_coherent():
    """The planner promotes an 8 KiB object under 4 KiB slots.  A 3-frame
    write to it, then gsync, leaves its DRAM copy equal to NVM, and a
    reader racing the write sees the old bytes or the new, never a mix."""
    sim, pool = build_pool(num_servers=1, num_clients=2)
    writer, reader = pool.clients
    server = pool.servers[0]
    old, new = b"\x01" * SIZE, b"\x02" * SIZE

    def heat(sim):
        gaddr = yield from writer.gmalloc(SIZE)
        yield from writer.gwrite(gaddr, old)
        yield from writer.gsync()
        for _ in range(10):
            for _ in range(20):
                yield from reader.gread(gaddr)
            yield sim.timeout(20_000)
        return gaddr

    (gaddr,) = pool.run(heat(sim))
    assert pool.master.directory.get(gaddr).cached
    assert gaddr in server.cached
    seen = []

    def write(sim):
        yield from writer.gwrite(gaddr, new)
        yield from writer.gsync()

    def race(sim):
        for _ in range(40):
            seen.append((yield from reader.gread(gaddr)))
            yield sim.timeout(300)

    pool.run(write(sim), race(sim))
    assert set(seen) <= {old, new}
    assert new in seen
    entry = server.cached[gaddr]
    dram = server.cache_mr.peek(entry.cache_offset + CACHE_TAG_BYTES, SIZE)
    assert dram == _nvm(server, gaddr) == new
    assert server.drain.drained_writes.count == 2  # one apply per write
    assert writer.m_direct_writes.count == 0


def test_a_write_during_a_reattach_handshake_lands_through_the_new_ring():
    """A write that finds the ring down mid-handshake fails typed, waits on
    that handshake and retries through the new ring — never one-sided."""
    sim, pool = build_pool(num_servers=1, num_clients=1, config=fast_config())
    client, server = pool.clients[0], pool.servers[0]

    def setup(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, b"old" + bytes(125))
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    server.crash()
    server.recover()
    pool.master.on_server_recovered(0)
    conn = client._conns[0]

    def app(sim):
        handshake = sim.spawn(client.reattach_server(0))
        yield 1
        assert conn.ring.desc is None  # the handshake is in flight
        yield from client.gwrite(gaddr, b"new" + bytes(125))
        yield handshake
        yield from client.gsync()

    pool.run(app(sim))
    assert _nvm(server, gaddr, 3) == b"new"
    assert client.m_direct_writes.count == 0
    assert server.drain.rings[client.name].drained == 1  # the new ring's frame


def test_a_client_killed_between_frames_leaves_no_partial_object():
    """The victim dies once its write's first frame is on the wire; the
    frames behind it flush.  The drain parks the frame and applies
    nothing, and the group is discarded when the ring is retired."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client, server = pool.clients[0], pool.servers[0]
    old = b"\x05" * SIZE

    def setup(sim):
        gaddr = yield from client.gmalloc(SIZE)
        yield from client.gwrite(gaddr, old)
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    ring = server.drain.rings[client.name]
    drained = ring.drained
    fabric = client.node.endpoint.fabric
    inject = fabric.inject

    def kill_after_one_frame(src, dst, nbytes):
        flight_ns = yield from inject(src, dst, nbytes)
        if src == client.name and nbytes > SIZE // 4:  # a full frame left
            client.crash()
        return flight_ns

    fabric.inject = kill_after_one_frame

    def victim(sim):
        try:
            yield from client.gwrite(gaddr, b"\x06" * SIZE)
        except Exception as exc:
            return type(exc).__name__

    (outcome,) = pool.run(victim(sim))
    fabric.inject = inject
    assert outcome == "FatalError"  # its other frames flushed
    assert len(ring.parked) == 1
    assert ring.drained == drained
    assert _nvm(server, gaddr) == old

    pool.run(pool.master.evict_client(client.name))
    assert server.drain.attached(client.name) is None
    assert _nvm(server, gaddr) == old


def test_a_torn_frame_drops_its_whole_group():
    """A frame group staged into a stalled ring gets its middle frame torn:
    the drain retires all three seqs and applies none of them."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config())
    client, server = pool.clients[0], pool.servers[0]
    old = b"\x07" * SIZE

    def app(sim):
        gaddr = yield from client.gmalloc(SIZE)
        yield from client.gwrite(gaddr, old)
        yield from client.gsync()
        ring = client._conns[0].ring
        first = ring.written
        server.drain.stall(30_000)
        yield from client.gwrite(gaddr, b"\x08" * SIZE)
        middle = (first + 1) % ring.desc.slots
        server.drain.rings[client.name].mr.poke(
            middle * ring.desc.slot_size + PROXY_HEADER_BYTES, b"\xff")
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(app(sim))
    ring = server.drain.rings[client.name]
    assert server.drain.torn_skipped.count == 1
    assert _nvm(server, gaddr) == old
    assert ring.drained == ring.seq == client._conns[0].ring.written
    assert not ring.parked and not ring.done


def test_a_torn_restage_of_a_multi_frame_write_is_skipped():
    """The injector re-stages only the first frame of the victim's last
    write, more-bit set, cut short: it is skipped and the write it copied
    stands whole."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=fast_config(client_lease_ns=LEASE))
    victim, other = pool.clients
    server = pool.servers[0]
    data = bytes(i % 253 for i in range(SIZE))

    def setup(sim):
        gaddr = yield from victim.gmalloc(SIZE)
        yield from victim.gwrite(gaddr, data)
        yield from victim.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=sim.now + 1_000, client=victim.name,
                    tear_inflight=True),
    ))

    def observe(sim):
        yield sim.timeout(3 * LEASE)  # lease expiry retires the ring too
        return (yield from other.gread(gaddr))

    (back,) = pool.run(observe(sim))
    assert back == data == _nvm(server, gaddr)
    assert server.drain.torn_skipped.count == 1
    assert sim.metrics.counter("faults.torn_injected").count == 1
