"""Hot-path read pipelining: doorbell batching, read combining, and the
consistency contract under out-of-order completion.
"""

from repro.core.driver import OpDriver
from repro.core.errors import ClientError
from repro.core.reads import SCRATCH_BYTES
from repro.rdma.rpc import RpcError

from tests.core.conftest import build_pool, fast_config


def _load_objects(client, count, size=128):
    """Process helper: allocate + write ``count`` objects, gsync, return
    their addresses (payload byte i repeated)."""
    addrs = []
    for i in range(count):
        g = yield from client.gmalloc(size)
        yield from client.gwrite(g, bytes([i % 251]) * size)
        addrs.append(g)
    yield from client.gsync()
    return addrs


# ----------------------------------------------------------------------
# Doorbell batching (the gread_many docstring is now the truth)
# ----------------------------------------------------------------------
def test_gread_many_one_doorbell_per_lane():
    """A batch of reads rings at most one post_send_many doorbell per read
    lane, and the doorbells together cover the whole batch — the
    regression guard for the old one-spawn-per-read shape."""
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]
    calls = []  # (server_id, lane, batch_size)

    def app(sim):
        addrs = yield from _load_objects(client, 8)
        for sid, conn in client._conns.items():
            for lane, qp in enumerate(conn.lanes):
                orig = qp.post_send_many

                def counted(wrs, _orig=orig, _key=(sid, lane)):
                    calls.append((*_key, len(wrs)))
                    return _orig(wrs)

                qp.post_send_many = counted
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i % 251]) * 128 for i in range(8)]
    lanes_hit = {(sid, lane) for sid, lane, _n in calls}
    assert len(calls) == len(lanes_hit)
    assert sum(n for *_key, n in calls) == 8
    # Two servers give two lanes each, and the reads spread over them.
    assert {len(conn.lanes) for conn in client._conns.values()} == {2}
    assert len(lanes_hit) > len({sid for sid, _lane in lanes_hit})


def _in_flight_at_first_completion(client):
    """Wrap every lane of every server: returns a list that ends up holding,
    per completed READ, how many READs had been posted when the batch's
    first completion fired."""
    posted = []
    seen = []
    for conn in client._conns.values():
        for qp in conn.lanes:
            orig = qp.post_send_many

            def counted(wrs, _orig=orig):
                events = _orig(wrs)
                for ev in events:
                    posted.append(ev)
                    ev.add_callback(lambda _ev: seen.append(len(posted)))
                return events

            qp.post_send_many = counted
    return seen


def test_gread_many_keeps_a_whole_batch_of_small_reads_in_flight():
    """Scratch is lent by the byte: 32 reads of 1 KiB take 32 KiB of the
    4 MiB region, so all 32 READs are posted before the first completes."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 32, size=1024)
        seen = _in_flight_at_first_completion(client)
        values = yield from client.gread_many(addrs)
        return values, seen

    ((values, seen),) = pool.run(app(sim))
    assert values == [bytes([i % 251]) * 1024 for i in range(32)]
    assert len(seen) == 32
    assert seen[0] == 32


def test_gread_many_larger_than_scratch_pool_completes():
    """A batch whose bytes exceed the 4 MiB region pipelines (recycling
    completed reads' spans, ringing the doorbell early), not wedges."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    size = 250 * 1024

    def app(sim):
        addrs = yield from _load_objects(client, 20, size=size)  # 5 MiB
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i % 251]) * size for i in range(20)]
    assert client._reads.scratch.idle


def test_proxy_write_and_a_large_read_share_a_full_region():
    """A 4 KiB proxy write and a 256 KiB read started while a batch holds
    nearly all of the region both finish: waiters are served as spans come
    back, in arrival order."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_slot_size=8 * 1024))
    client = pool.clients[0]
    size = 250 * 1024

    def setup(sim):
        batch = yield from _load_objects(client, 16, size=size)  # 4000 KiB
        (big,) = yield from _load_objects(client, 1, size=256 * 1024)
        (small,) = yield from _load_objects(client, 1, size=4096)
        return batch, big, small

    ((batch, big, small),) = pool.run(setup(sim))
    staged = client.m_proxy_writes.count
    procs = [sim.spawn(client.gread_many(batch)),
             sim.spawn(client.gread(big)),
             sim.spawn(client.gwrite(small, b"\x5a" * 4096))]
    sim.run(until=sim.now + 1_000)
    # The read waits for room, and the write queues behind it.
    assert [n for n, _ev in client._reads.scratch._waiters][0] == 256 * 1024
    assert len(client._reads.scratch._waiters) == 2
    sim.run(until=sim.now + 10_000_000)
    assert all(p.triggered and p.ok for p in procs)
    assert procs[0].value == [bytes([i % 251]) * size for i in range(16)]
    assert procs[1].value == bytes([0]) * (256 * 1024)
    assert client.m_proxy_writes.count == staged + 1
    assert client._reads.scratch.idle


def test_gread_many_observes_overlay_and_partial_overlap():
    """Read-your-writes through the batch path: full-cover overlay entries
    are served locally; a partial overlap falls back (gsync-then-read)."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 3, size=128)
        # Full-object overwrite (staged, not yet drained) on addr 0 and a
        # partial overwrite on addr 1.
        yield from client.gwrite(addrs[0], b"\xaa" * 128)
        yield from client.gwrite(addrs[1], b"\xbb" * 64, offset=32)
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values[0] == b"\xaa" * 128
    assert values[1] == (bytes([1]) * 32 + b"\xbb" * 64 + bytes([1]) * 32)
    assert values[2] == bytes([2]) * 128


# ----------------------------------------------------------------------
# Out-of-order write completions
# ----------------------------------------------------------------------
def test_async_completions_respect_gsync_consistency():
    """The ordering contract under out-of-order completion: once writes
    issued as concurrent processes are acknowledged (every process done)
    and gsync'd, a lock-protected read — from a *different* client —
    observes every one of them."""
    sim, pool = build_pool(num_servers=2, num_clients=2)
    writer, reader = pool.clients

    def wapp(sim, addrs):
        procs = [sim.spawn(writer.gwrite(g, bytes([0x90 + i]) * 128))
                 for i, g in enumerate(addrs)]
        yield sim.all_of(procs)  # acknowledged
        yield from writer.gsync()  # drained to the servers

    def rapp(sim, addrs):
        values = []
        for g in addrs:
            yield from reader.glock(g, write=False)
            try:
                v = yield from reader.gread(g)
            finally:
                yield from reader.gunlock(g, write=False)
            values.append(v)
        return values

    def setup(sim):
        addrs = yield from _load_objects(writer, 6)
        return addrs

    (addrs,) = pool.run(setup(sim))
    pool.run(wapp(sim, addrs))
    (values,) = pool.run(rapp(sim, addrs))
    assert values == [bytes([0x90 + i]) * 128 for i in range(6)]


# ----------------------------------------------------------------------
# Server-side read combining
# ----------------------------------------------------------------------
def test_adjacent_reads_combine_into_one_device_transfer():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    node_name = pool.servers[0].node.name

    def app(sim):
        # Consecutive equal-size allocations are NVM-adjacent.
        addrs = yield from _load_objects(client, 4)
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i % 251]) * 128 for i in range(4)]
    transfers = sim.metrics.counter(f"{node_name}.combine.transfers").count
    members = sim.metrics.counter(f"{node_name}.combine.members").total
    assert transfers >= 1
    assert members >= 4  # all four rode combined transfers
    assert members > transfers  # genuinely coalesced, not 1:1


def test_combining_beats_uncombined_adjacent_reads():
    """The Optane per-transfer setup charge is paid once per combined
    group, so a batched read of adjacent objects is cheaper in virtual
    time than the same reads issued serially."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 8)
        t0 = sim.now
        for g in addrs:
            yield from client.gread(g)
        serial = sim.now - t0
        t0 = sim.now
        yield from client.gread_many(addrs)
        batched = sim.now - t0
        return serial, batched

    ((serial, batched),) = pool.run(app(sim))
    assert batched < serial * 0.6



# ----------------------------------------------------------------------
# A stale cache tag is repaired inside its batch
# ----------------------------------------------------------------------
def _stale_batch(num_clients=1):
    """Eight 128 B objects; the fourth is pinned into the cache, client 0
    learns its cached location, and then the master demotes it."""
    sim, pool = build_pool(num_servers=1, num_clients=num_clients)
    client = pool.clients[0]
    master = pool.master

    def setup(sim):
        addrs = yield from _load_objects(client, 8)
        yield from master.pin(addrs[3])
        client._metas.drop(addrs[3])
        yield from client.gread(addrs[3])  # looks up the cached location
        return addrs

    (addrs,) = pool.run(setup(sim))
    assert client._metas.get(addrs[3]).cached
    return sim, pool, addrs


def _elapsed(sim, pool, gen):
    def timed(sim):
        t0 = sim.now
        value = yield from gen
        return sim.now - t0, value

    (result,) = pool.run(timed(sim))
    return result


def test_stale_tag_is_repaired_in_one_round_trip_plus_the_slower_of_two():
    sim, pool, addrs = _stale_batch()
    client, master = pool.clients[0], pool.master
    stale = addrs[3]
    t_hit, _ = _elapsed(sim, pool, client.gread_many(addrs))
    pool.run(master.planner.demote(stale))

    verbs = []
    op = OpDriver.op

    def counted(driver, name, *args, **kwargs):
        verbs.append(name)
        return op(driver, name, *args, **kwargs)

    OpDriver.op = counted
    lookups = client.m_lookups.count
    try:
        t_batch, values = _elapsed(sim, pool, client.gread_many(addrs))
    finally:
        OpDriver.op = op

    assert values == [bytes([i % 251]) * 128 for i in range(8)]
    assert [len(v) for v in values] == [128] * 8
    assert client.m_lookups.count - lookups == 1
    assert verbs == ["gread_many"]  # no serial gread
    assert client.m_tag_misses.count == 1
    assert not client._metas.get(stale).cached  # the lookup's answer
    # One round trip (the batch as it runs clean) plus the slower of the
    # lookup and a READ of the home, not their sum after the batch.
    t_clean, _ = _elapsed(sim, pool, client.gread_many(addrs))
    client._metas.drop(stale)
    t_lookup, _ = _elapsed(sim, pool, client._metas.lookup(stale))
    t_read, _ = _elapsed(sim, pool, client.gread(stale))
    assert t_batch <= max(t_hit, t_clean) + max(t_lookup, t_read)
    assert client._reads.scratch.idle


def test_a_serial_stale_tag_costs_a_cache_read_plus_the_slower_of_two():
    """gread's stale tag is a miss whose size the stale metadata gives: one
    cache READ, then the home READ beside the lookup, not after it."""
    sim, pool, addrs = _stale_batch()
    client, master = pool.clients[0], pool.master
    stale = addrs[3]
    t_hit, _ = _elapsed(sim, pool, client.gread(stale))
    pool.run(master.planner.demote(stale))
    lookups, aheads = client.m_lookups.count, client.m_read_aheads.count
    t_stale, value = _elapsed(sim, pool, client.gread(stale))

    assert value == bytes([3]) * 128
    assert client.m_tag_misses.count == 1
    assert client.m_lookups.count - lookups == 1
    assert client.m_read_aheads.count - aheads == 1
    assert client.m_read_ahead_drops.count == 0
    assert not client._metas.get(stale).cached  # the lookup's answer
    # The hit is a CPU pass and the cache READ; ``t_read`` a CPU pass and
    # the home READ, whose CPU pass the stale tag does not pay again.
    client._metas.drop(stale)
    t_lookup, _ = _elapsed(sim, pool, client._metas.lookup(stale))
    t_read, _ = _elapsed(sim, pool, client.gread(stale))
    assert t_hit + t_lookup <= t_stale <= t_hit + max(t_lookup, t_read)
    assert client._reads.scratch.idle


def test_a_batch_with_a_stale_tag_and_a_dropped_read_ahead_returns_every_item():
    """A stale tag and a miss whose READ-ahead falls short of its object
    resolve in one batch: both READ-aheads go out, the stale tag's bytes
    stand, the short ones are dropped and the item READ once its lookup is
    back, and no scratch stays lent."""
    sim, pool, addrs = _stale_batch()
    client, master = pool.clients[0], pool.master
    pool.run(master.planner.demote(addrs[3]))
    client._metas.drop(addrs[5])
    client._metas._sizes = (64, 64)  # the miss's READ-ahead spans 64 B
    aheads, drops = client.m_read_aheads.count, client.m_read_ahead_drops.count

    values = pool.run(client.gread_many(addrs))[0]
    assert values == [bytes([i % 251]) * 128 for i in range(8)]
    assert client.m_tag_misses.count == 1
    assert client.m_read_aheads.count - aheads == 2
    assert client.m_read_ahead_drops.count - drops == 1
    assert client._reads.scratch.idle


def test_a_repeated_stale_address_is_looked_up_once():
    """An address at two places of a batch whose cached location went stale
    costs one lookup and one READ-ahead, as a plain miss at two places does:
    the second stale verdict joins the first's miss."""
    sim, pool, addrs = _stale_batch()
    client, master = pool.clients[0], pool.master
    stale = addrs[3]
    pool.run(master.planner.demote(stale))
    lookups, aheads = client.m_lookups.count, client.m_read_aheads.count

    values = pool.run(client.gread_many([stale, addrs[0], stale]))[0]
    assert values == [bytes([3]) * 128, bytes([0]) * 128, bytes([3]) * 128]
    assert client.m_tag_misses.count == 2  # each index's cache READ
    assert client.m_lookups.count - lookups == 1
    assert client.m_read_aheads.count - aheads == 1
    assert client.m_read_ahead_drops.count == 0
    assert not client._metas.get(stale).cached
    assert client._reads.scratch.idle


def test_a_stale_address_read_after_its_miss_resolved_routes_on_its_answer():
    """With scratch for one READ at a time, the address's second cache READ
    goes out on the stale metadata only after the first one's miss has
    resolved: it finds the stale tag too and is READ again on the metadata
    that miss returned, with no second lookup or READ-ahead."""
    sim, pool, addrs = _stale_batch()
    client, master = pool.clients[0], pool.master
    stale = addrs[3]
    pool.run(master.planner.demote(stale))
    scratch = client._reads.scratch
    held = SCRATCH_BYTES - 192  # room for one 144 B cache READ
    hold = scratch.try_alloc(held)
    lookups, aheads = client.m_lookups.count, client.m_read_aheads.count

    values = pool.run(client.gread_many([stale, stale]))[0]
    scratch.free(hold, held)
    assert values == [bytes([3]) * 128] * 2
    assert client.m_tag_misses.count == 2
    assert client.m_lookups.count - lookups == 1
    assert client.m_read_aheads.count - aheads == 1
    assert scratch.idle


def test_stale_tag_of_a_freed_object_raises_what_serial_gread_raises():
    sim, pool, addrs = _stale_batch(num_clients=2)
    client, other = pool.clients
    stale = addrs[3]
    pool.run(other.gfree(stale))

    def outcome(gen):
        def run(sim):
            try:
                yield from gen
            except (ClientError, RpcError) as exc:
                return exc
            return None

        (exc,) = pool.run(run(sim))
        return exc

    batched = outcome(client.gread_many(addrs))
    assert client.m_tag_misses.count == 1
    serial = outcome(client.gread(stale))
    assert batched is not None and serial is not None
    assert (type(batched), str(batched)) == (type(serial), str(serial))
    assert client._reads.scratch.idle
