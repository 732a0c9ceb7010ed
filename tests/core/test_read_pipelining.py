"""Hot-path read pipelining: doorbell batching, prefetch, read combining,
and the consistency contract under out-of-order completion.
"""

import pytest

from repro.core.hotness import AccessPredictor

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
# Hotness-driven prefetch
# ----------------------------------------------------------------------
def _prefetch_config(**overrides):
    """Prefetch-focused config: the epoch planner is pushed far out so any
    promotion we observe came from the prefetch fast path."""
    defaults = dict(epoch_ns=10_000_000_000, report_every_ops=10_000,
                    prefetch_depth=4)
    defaults.update(overrides)
    return fast_config(**defaults)


def test_prefetch_promotes_after_admission_threshold():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=_prefetch_config())
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 4)
        hot = addrs[0]
        yield from client.gread(hot)  # touch 1: below threshold
        yield from client.gread(hot)  # touch 2: nominates
        yield sim.timeout(1_000_000)  # let the background pump land
        hits_before = client.m_cache_hits.count
        data = yield from client.gread(hot)  # now a DRAM cache hit
        return data, client.m_cache_hits.count - hits_before

    ((data, hit_delta),) = pool.run(app(sim))
    assert data == bytes([0]) * 128
    assert hit_delta == 1
    assert sim.metrics.counter("master.prefetch_promotions").count >= 1


def test_admission_filter_skips_one_touch_objects():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=_prefetch_config())
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 8)
        for g in addrs:  # every object touched exactly once
            yield from client.gread(g)
        yield sim.timeout(1_000_000)

    pool.run(app(sim))
    assert sim.metrics.counter("master.prefetch_requests").count == 0
    assert sim.metrics.counter("pool.prefetches").count == 0


def test_prefetch_disabled_by_zero_depth():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=_prefetch_config(prefetch_depth=0))
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 2)
        for _ in range(5):
            yield from client.gread(addrs[0])
        yield sim.timeout(1_000_000)

    pool.run(app(sim))
    assert client._predictor is None
    assert sim.metrics.counter("master.prefetch_requests").count == 0


def test_prefetch_in_flight_survives_server_crash():
    """A server crash with a prefetch promotion in flight must neither
    wedge the client pipeline nor corrupt the cache: the request is
    dropped on the floor and post-revive reads return correct data."""
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=_prefetch_config(retry_max_attempts=8, auto_reattach=True,
                                degraded_mode=True))
    client = pool.clients[0]

    def app(sim):
        addrs = yield from _load_objects(client, 4)
        hot = addrs[1]
        yield from client.gread(hot)
        yield from client.gread(hot)  # nominates; pump now racing the crash
        pool.servers[0].crash()
        yield sim.timeout(2_000_000)
        pool.servers[0].recover()
        pool.master.on_server_recovered(0)
        yield sim.timeout(1_000_000)
        data = yield from client.gread(hot)  # retries + reattaches
        return data

    (data,) = pool.run(app(sim))
    assert data == bytes([1]) * 128


# ----------------------------------------------------------------------
# Server-side read combining
# ----------------------------------------------------------------------
def test_adjacent_reads_combine_into_one_device_transfer():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(prefetch_depth=0))
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
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(prefetch_depth=0))
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
# AccessPredictor unit behaviour
# ----------------------------------------------------------------------
def test_predictor_detects_stride():
    p = AccessPredictor(depth=4)
    for addr in (1000, 1128, 1256):  # two consecutive +128 deltas confirm
        p.observe(addr)
    preds = p.predict()
    assert preds[0] == 1384
    assert preds[:2] == [1384, 1512]


def test_predictor_frequency_ranking():
    p = AccessPredictor(depth=3)
    # Alternating pattern: no two consecutive equal deltas, so no stride
    # is confirmed and predictions come from the frequency table.
    for addr in (7000, 8000, 7000, 8000, 7000, 9000):
        p.observe(addr)
    preds = p.predict()
    # Hottest first, excluding the just-accessed address (9000).
    assert preds[0] == 7000
    assert 8000 in preds
    assert 9000 not in preds


def test_predictor_decay_prunes_cold_entries():
    p = AccessPredictor(depth=4, table_size=8, decay=0.5)
    p.observe(1)  # one touch, then a long hot stream elsewhere
    for i in range(200):
        p.observe(5000 + (i % 16) * 64)
    assert len(p._counts) <= 2 * 8 + 1  # bounded, cold key pruned

    p2 = AccessPredictor(depth=2)
    with pytest.raises(ValueError):
        AccessPredictor(depth=0)
    assert p2.predict() == []
