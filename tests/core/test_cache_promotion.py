"""Integration tests for hot-data identification and DRAM caching."""

from repro.core import server_of
from repro.core.hotness import EpochDecayPolicy

from tests.core.conftest import build_pool, fast_config


def hammer(client, gaddr, n, length=None):
    """Read an object ``n`` times."""
    for _ in range(n):
        yield from client.gread(gaddr, length=length)


def test_hot_object_gets_promoted_to_dram():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(1024)
        yield from client.gwrite(gaddr, b"h" * 1024)
        yield from client.gsync()
        # Hammer it long enough to cross a few epochs.
        for _ in range(10):
            yield from hammer(client, gaddr, 20)
            yield sim.timeout(20_000)
        return gaddr

    (gaddr,) = pool.run(app(sim))
    record = pool.master.directory.get(gaddr)
    assert record.cached, "a hammered object must be promoted"
    server = pool.servers[server_of(gaddr)]
    assert gaddr in server.cached
    # The cached copy carries the data (after the tag).
    entry = server.cached[gaddr]
    raw = server.cache_mr.peek(entry.cache_offset + 16, 16)
    assert raw == b"h" * 16


def test_promoted_reads_hit_cache_and_get_faster():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        # 2 KiB: large enough that the DRAM/NVM latency gap is measurable.
        gaddr = yield from client.gmalloc(2048)
        yield from client.gwrite(gaddr, b"x" * 2048)
        yield from client.gsync()

        cold = []
        for _ in range(10):
            t0 = sim.now
            yield from client.gread(gaddr)
            cold.append(sim.now - t0)

        # Cross epochs so the planner promotes and the client learns of it
        # via its piggybacked report responses.
        for _ in range(12):
            yield from hammer(client, gaddr, 10)
            yield sim.timeout(20_000)

        hot = []
        for _ in range(10):
            t0 = sim.now
            yield from client.gread(gaddr)
            hot.append(sim.now - t0)
        return sum(cold) / len(cold), sum(hot) / len(hot)

    (result,) = pool.run(app(sim))
    cold_avg, hot_avg = result
    assert hot_avg < cold_avg, (
        f"cached reads ({hot_avg:.0f} ns) must beat NVM reads ({cold_avg:.0f} ns)"
    )
    assert pool.clients[0].m_cache_hits.count > 0


def test_cold_objects_stay_in_nvm():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for _ in range(10):
            g = yield from client.gmalloc(512)
            addrs.append(g)
        # Touch each object once — far below the promotion threshold.
        for g in addrs:
            yield from client.gread(g)
        yield sim.timeout(200_000)  # several epochs
        return addrs

    (addrs,) = pool.run(app(sim))
    for g in addrs:
        assert not pool.master.directory.get(g).cached


def test_hotter_object_evicts_cooled_one_and_reuses_its_slot():
    """A cooled object stays cached while the cache has room; a hotter one
    that cannot fit beside it takes its slot."""
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        # Room for one 2 KiB object once the planner's tag headroom is
        # reserved, not two.
        config=fast_config(epoch_ns=30_000, cache_capacity=4096),
        policy_factory=lambda: EpochDecayPolicy(decay=0.25, promote_threshold=4.0),
    )
    client = pool.clients[0]
    server = pool.servers[0]

    def warm(gaddr, fill):
        yield from client.gwrite(gaddr, fill * 2048)
        yield from client.gsync()
        for _ in range(8):
            yield from hammer(client, gaddr, 15)
            yield sim.timeout(15_000)

    def app(sim):
        cool = yield from client.gmalloc(2048)
        yield from warm(cool, b"c")
        assert pool.master.directory.get(cool).cached
        slot = server.cached[cool].cache_offset
        held = server.cache_alloc.allocated_bytes
        # Go silent for many epochs: the score decays towards zero, and
        # with nothing asking for its room the object stays cached.
        yield sim.timeout(400_000)
        assert pool.master.directory.get(cool).cached
        assert cool in server.cached
        hot = yield from client.gmalloc(2048)
        yield from warm(hot, b"h")
        return cool, hot, slot, held

    ((cool, hot, slot, held),) = pool.run(app(sim))
    assert not pool.master.directory.get(cool).cached
    assert cool not in server.cached
    assert pool.master.directory.get(hot).cached
    assert server.cached[hot].cache_offset == slot  # the evicted slot, reused
    assert server.cache_alloc.allocated_bytes == held
    entry = server.cached[hot]
    assert server.cache_mr.peek(entry.cache_offset + 16, 16) == b"h" * 16


def test_stale_client_metadata_self_heals_after_demotion():
    """A client that still believes an object is cached must detect the dead
    tag, refresh its metadata, and read NVM correctly."""
    sim, pool = build_pool(num_servers=1, num_clients=2)
    hot_client, stale_client = pool.clients

    def phase1(sim):
        gaddr = yield from hot_client.gmalloc(256)
        yield from hot_client.gwrite(gaddr, b"v1" + bytes(254))
        yield from hot_client.gsync()
        for _ in range(10):
            yield from hammer(hot_client, gaddr, 15)
            yield sim.timeout(20_000)
        # Let the stale client learn the cached location.
        for _ in range(10):
            yield from hammer(stale_client, gaddr, 15)
            yield sim.timeout(20_000)
        return gaddr

    (gaddr,) = pool.run(phase1(sim))
    assert pool.master.directory.get(gaddr).cached
    stale_meta = stale_client._meta_cache.get(gaddr)
    assert stale_meta is not None and stale_meta.cached

    # Force the demotion server-side (simulating cooling elsewhere).
    def force_demote(sim):
        handle = pool.master._servers[0]
        yield from pool.master._demote(handle, pool.master._policies[0], gaddr)

    pool.run(force_demote(sim))
    assert not pool.master.directory.get(gaddr).cached

    # The stale client still believes it's cached; the read must self-heal.
    def stale_read(sim):
        data = yield from stale_client.gread(gaddr, length=2)
        return data

    (data,) = pool.run(stale_read(sim))
    assert data == b"v1"
    assert stale_client.m_tag_misses.count >= 1


def test_cache_respects_capacity():
    """More hot bytes than cache capacity: the cache never overcommits."""
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config(cache_capacity=8 * 1024, promote_threshold=3.0),
    )
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for _ in range(8):  # 8 x 2 KiB = 16 KiB of hot data, 8 KiB cache
            g = yield from client.gmalloc(2048)
            addrs.append(g)
        for _ in range(10):
            for g in addrs:
                yield from hammer(client, g, 3)
            yield sim.timeout(20_000)
        return addrs

    pool.run(app(sim))
    server = pool.servers[0]
    assert server.cache_used_bytes <= 8 * 1024
    cached_count = sum(1 for r in pool.master.directory.objects() if r.cached)
    assert 0 < cached_count < 8


def test_promotion_preserves_latest_synced_data():
    """Writes that drained before promotion are visible in the cached copy."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, b"OLD" + bytes(125))
        yield from client.gwrite(gaddr, b"NEW" + bytes(125))
        yield from client.gsync()
        for _ in range(10):
            yield from hammer(client, gaddr, 15)
            yield sim.timeout(20_000)
        data = yield from client.gread(gaddr, length=3)
        return gaddr, data

    (result,) = pool.run(app(sim))
    gaddr, data = result
    assert pool.master.directory.get(gaddr).cached
    assert data == b"NEW"


def test_concurrent_promotes_share_one_slot():
    """Two promotes of one object in flight at once (planner vs pin)
    publish one slot: the one the directory hands out is the one the drain
    keeps fresh, and the loser's slot goes back to the allocator."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    master, server = pool.master, pool.servers[0]

    def setup(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, b"AAA" + bytes(125))
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    handle, policy = master._servers[0], master._policies[0]
    pool.run(master._promote(handle, policy, gaddr), master.pin(gaddr))
    record = master.directory.get(gaddr)
    assert record.cached
    assert server.cached[gaddr].cache_offset == record.cache_offset
    assert (server.cache_alloc.allocated_bytes
            == server.cache_alloc.size_of(record.cache_offset))

    def update(sim):
        yield from client.gwrite(gaddr, b"BBB" + bytes(125))
        yield from client.gsync()

    pool.run(update(sim))
    assert server.cache_mr.peek(record.cache_offset + 16, 3) == b"BBB"


def test_writes_to_cached_object_update_cache_via_drain():
    """Proxy drains freshen the DRAM copy: later cached reads see new data."""
    sim, pool = build_pool(num_servers=1, num_clients=2)
    writer, reader = pool.clients

    def app(sim):
        gaddr = yield from writer.gmalloc(128)
        yield from writer.gwrite(gaddr, b"AAA" + bytes(125))
        yield from writer.gsync()
        # Promote via reader traffic.
        for _ in range(10):
            yield from hammer(reader, gaddr, 15)
            yield sim.timeout(20_000)
        assert pool.master.directory.get(gaddr).cached
        # Writer updates through the proxy and syncs.
        yield from writer.gwrite(gaddr, b"BBB" + bytes(125))
        yield from writer.gsync()
        data = yield from reader.gread(gaddr, length=3)
        return data

    (data,) = pool.run(app(sim))
    assert data == b"BBB"


def test_home_server_crash_mid_promotion_copy():
    """Crash the home server while a pin's NVM-to-DRAM copy is in flight.

    The crash wipes the DRAM cache under the copy.  After recovery and
    ``on_server_recovered`` the object reads back byte-exact, no directory
    record is cached on a slot the crash wiped, and every extent is
    accounted for."""
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config())
    client = pool.clients[0]
    master, server = pool.master, pool.servers[0]
    payload = b"pinned" + bytes(122)

    def setup(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, payload)
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))

    def crash_mid_copy(sim):
        sim.spawn(master.pin(gaddr))
        # The server carves the slot before the copy and publishes it after.
        while not server.cache_alloc.allocated_bytes:
            yield 100
        assert gaddr not in server.cached
        server.crash()
        yield 200_000
        server.recover()
        master.on_server_recovered(0)
        yield 100_000
        data = yield from client.gread(gaddr)
        return data

    (data,) = pool.run(crash_mid_copy(sim))
    assert data == payload
    for record in master.directory.objects():
        if record.cached:
            entry = server.cached.get(record.gaddr)
            assert entry is not None
            assert entry.cache_offset == record.cache_offset
    # The server agrees: every slot it serves is one its post-crash
    # allocator holds, and it holds nothing else.
    held = [server.cache_alloc.size_of(e.cache_offset)
            for e in server.cached.values()]
    assert None not in held
    assert server.cache_alloc.allocated_bytes == sum(held)
    assert master.check_extents() == []
