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
        # 2 KiB: large enough that the DRAM/NVM latency gap is measurable,
        # small enough to fit a proxy slot — objects whose writes could
        # bypass the proxy ring are not promotable (drain coherence).
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


def test_cooled_object_demoted_and_slot_reusable():
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config(epoch_ns=30_000),
        policy_factory=lambda: EpochDecayPolicy(
            decay=0.25, promote_threshold=4.0, demote_threshold=1.0),
    )
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(1024)
        yield from client.gwrite(gaddr, b"c" * 1024)
        for _ in range(8):
            yield from hammer(client, gaddr, 15)
            yield sim.timeout(15_000)
        assert pool.master.directory.get(gaddr).cached
        # Go silent: the score decays below the demote threshold.
        yield sim.timeout(400_000)
        return gaddr

    (gaddr,) = pool.run(app(sim))
    assert not pool.master.directory.get(gaddr).cached
    server = pool.servers[0]
    assert gaddr not in server.cached
    assert server.cache_alloc.allocated_bytes == 0  # slot returned


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
        config=fast_config(cache_capacity=8 * 1024,
                           promote_threshold=3.0, demote_threshold=0.5),
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
    """Two promotes of one object in flight at once (planner vs prefetch)
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
    pool.run(master._promote(handle, policy, gaddr),
             master._promote(handle, policy, gaddr))
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
