"""Hot-path read pipelining: doorbell batching, read combining, and the
consistency contract under out-of-order completion.
"""

from tests.core.conftest import build_pool


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


def test_gread_many_larger_than_scratch_pool_completes():
    """More reads than scratch slots must pipeline (recycling completed
    reads' slots), not wedge."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 24)  # > 16 scratch slots
        values = yield from client.gread_many(addrs)
        return values

    (values,) = pool.run(app(sim))
    assert values == [bytes([i % 251]) * 128 for i in range(24)]


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

