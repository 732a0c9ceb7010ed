"""Ring flow control: what the client knows of its ring's drained counter,
and what that knowledge is allowed to change (docs/PROTOCOLS.md §3.2)."""

import pytest

from repro.core import StaleRingError
from repro.core.addressing import offset_of
from repro.core.protocol import COMMIT_WORD_BYTES, PROXY_HEADER_BYTES
from repro.faults import FaultPlan, RingStall

from tests.core.conftest import build_pool, fast_config


def test_a_counter_read_that_returns_after_a_reattach_is_dropped():
    """An 8-byte counter READ of the old ring is still in flight when the
    server crashes and the client re-attaches.  Its value counts the old
    ring's frames; stored as the new ring's ``drained_known`` it would let
    the writer lap the new ring, and the drain would skip the overwritten
    slots as torn while gsync still returned."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=8))
    client, server = pool.clients[0], pool.servers[0]
    ring = client._conns[0].ring

    def setup(sim):
        addrs = []
        for _ in range(16):
            addrs.append((yield from client.gmalloc(64)))
        for g in addrs[:6]:
            yield from client.gwrite(g, b"\x01" * 64)
        yield from client.gsync()
        for g in addrs[6:9]:
            yield from client.gwrite(g, b"\x01" * 64)
        return addrs

    (addrs,) = pool.run(setup(sim))
    assert (ring.written, ring.drained_known) == (9, 6)

    delayed = []

    def slow_counter(src, dst, nbytes):
        if src == server.node.name and nbytes == 8 and not delayed:
            delayed.append(sim.now)
            return False, 30_000
        return False, 0

    pool.cluster.fabric.set_fault_hook(slow_counter)

    def poll(sim):
        yield from ring.poll()

    def crash_and_reattach(sim):
        yield 1_500
        server.crash()
        server.recover()
        pool.master.on_server_recovered(0)
        yield from client.reattach_server(0)

    pool.run(poll(sim), crash_and_reattach(sim))
    pool.cluster.fabric.set_fault_hook(None)
    assert delayed, "the counter READ's response was not delayed"
    assert (ring.written, ring.drained_known) == (0, 0)

    pool.inject_faults(FaultPlan.of(
        RingStall(at_ns=sim.now + 1_000, duration_ns=50_000, server_id=0)))

    def burst(sim):
        yield 2_000
        for g in addrs:
            yield from client.gwrite(g, b"\x02" * 64)
        yield from client.gsync()

    torn = server.drain.torn_skipped.count
    pool.run(burst(sim))
    assert server.drain.torn_skipped.count == torn
    for g in addrs:
        assert server.data_device.peek(offset_of(g), 64) == b"\x02" * 64


def _one_ring(slots=8):
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(proxy_ring_slots=slots,
                                              enable_cache=False))
    client = pool.clients[0]
    return sim, pool, client, pool.servers[0], client._conns[0].ring


def test_a_steady_writer_stops_blocking_once_it_refreshes_ahead():
    """A drain stall makes the writer's first look at the counter block
    and find frames undrained.  From its first background refresh on, the
    writer knows the counter ahead of need: no write of it waits for a
    counter READ again, though it stages five rings' worth."""
    sim, pool, client, server, ring = _one_ring()
    polls = []  # who posted each counter READ: "write", "sync" or "refresh"
    app_proc, phase = [], ["write"]
    poll = ring.poll

    def spy():
        polls.append(phase[0] if sim.active is app_proc[0] else "refresh")
        return (yield from poll())

    ring.poll = spy

    def app(sim):
        app_proc.append(sim.active)
        addrs = []
        for _ in range(8):
            addrs.append((yield from client.gmalloc(1024)))
        server.drain.stall(20_000)
        for i in range(40):
            yield from client.gwrite(addrs[i % 8], bytes([i]) * 1024)
        phase[0] = "sync"
        yield from client.gsync()
        return addrs

    (addrs,) = pool.run(app(sim))
    assert "refresh" in polls, "the writer never refreshed in the background"
    first = polls.index("refresh")
    assert polls[:first] == ["write"]  # the stall's wait
    assert "write" not in polls[first:], (
        f"the writer blocked on the counter after refreshing: {polls}")
    assert client.m_ring_waits.count == 1
    assert client.m_ring_refreshes.count == polls.count("refresh")
    for i, g in enumerate(addrs):
        assert server.data_device.peek(offset_of(g), 1024) == bytes([32 + i]) * 1024


def test_a_refresh_keeps_the_overlay_until_the_ring_is_needed():
    """A refresh that shows a write drained does not prune it: reads keep
    hitting the overlay.  The entry goes at the writer's next need point
    (the writes staged since the last prune fill the ring), which here
    finds room by the refreshed counter and polls nothing, and gsync
    prunes whatever is left."""
    sim, pool, client, server, ring = _one_ring()

    def app(sim):
        addrs = []
        for _ in range(9):
            addrs.append((yield from client.gmalloc(64)))
        yield from client.gwrite(addrs[0], b"\x01" * 64)
        yield 50_000  # the drain applies it
        yield from ring._refresh_drained()
        assert ring.drained_known == 1 and addrs[0] in ring.overlay
        hits = client.m_overlay_hits.count
        assert (yield from client.gread(addrs[0])) == b"\x01" * 64
        assert client.m_overlay_hits.count == hits + 1
        for g in addrs[1:8]:
            yield from client.gwrite(g, b"\x02" * 64)
        assert addrs[0] in ring.overlay and ring.written == 8
        yield from client.gwrite(addrs[8], b"\x03" * 64)  # the need point
        assert addrs[0] not in ring.overlay
        assert len(ring.overlay) == 8
        assert client.m_ring_waits.count == 0
        yield from client.gsync()
        assert not ring.overlay

    pool.run(app(sim))


def test_gsync_prunes_what_a_refresh_showed_drained():
    """gsync's early branch (nothing staged is undrained) posts no READ but
    still prunes the overlay, so a later read goes to the pool, where
    another client's write since would be seen."""
    sim, pool, client, server, ring = _one_ring()

    def app(sim):
        g = yield from client.gmalloc(64)
        yield from client.gwrite(g, b"\x01" * 64)
        yield 50_000
        yield from ring._refresh_drained()
        assert g in ring.overlay and ring.pruned == 0
        reads = client.m_reads.count
        yield from client.gsync()
        assert client.m_reads.count == reads
        assert not ring.overlay and ring.pruned == 1

    pool.run(app(sim))


@pytest.mark.parametrize("undrained", [False, True])
def test_writes_known_drained_are_not_reported_lost(undrained):
    """A crash loses only what was not known drained.  During the
    re-attach, gsync refuses to vouch for a down ring only if an undrained
    write is staged toward it; the re-attach drops every overlay entry of
    the server and reports just the undrained ones."""
    sim, pool, client, server, ring = _one_ring()

    def setup(sim):
        addrs = []
        for _ in range(3):
            addrs.append((yield from client.gmalloc(64)))
        for g in addrs[:2]:
            yield from client.gwrite(g, b"\x01" * 64)
        yield 50_000
        yield from ring._refresh_drained()
        if undrained:
            server.drain.stall(1_000_000)
            yield from client.gwrite(addrs[2], b"\x02" * 64)
        return addrs

    (addrs,) = pool.run(setup(sim))
    assert set(addrs[:2]) <= set(ring.overlay)
    server.crash()
    server.recover()
    pool.master.on_server_recovered(0)
    outcome = {}

    def reattach(sim):
        outcome["lost"] = yield from client.reattach_server(0)

    def sync_meanwhile(sim):
        yield 1
        assert ring.desc is None
        try:
            yield from client._gsync_attempt(0, 0)
            outcome["sync"] = "ok"
        except StaleRingError:
            outcome["sync"] = "stale"

    pool.run(reattach(sim), sync_meanwhile(sim))
    assert outcome["sync"] == ("stale" if undrained else "ok")
    assert outcome["lost"] == (addrs[2:] if undrained else [])
    assert not ring.overlay


@pytest.mark.parametrize("wait", ["ring-space", "scratch"])
def test_a_write_waiting_through_a_reattach_takes_no_seq_of_the_new_ring(wait):
    """A single-frame write waits, before it reserves its seq, while the
    server crashes and the client re-attaches: for ring space (the drain
    is stalled and the ring full; the re-attach fits in one backoff sleep)
    or for scratch (the region is held and the frame too large to go
    inline).  It must not take a seq of the new ring and post it to the
    old one: that frame is lost and its retry, one seq late, is skipped as
    torn, so gsync would poll forever.  It fails typed instead, and its
    retry restages it on the new ring."""
    from repro.core.reads import SCRATCH_BYTES

    sim, pool = build_pool(num_servers=1, num_clients=1, max_events=200_000,
                           config=fast_config(proxy_ring_slots=8,
                                              enable_cache=False))
    client, server = pool.clients[0], pool.servers[0]
    ring = client._conns[0].ring
    size = 64 if wait == "ring-space" else 1024
    frame = PROXY_HEADER_BYTES + size + COMMIT_WORD_BYTES
    assert client.node.nic.is_inline(frame) == (wait == "ring-space")

    def setup(sim):
        addrs = []
        for _ in range(9):
            addrs.append((yield from client.gmalloc(size)))
        if wait == "ring-space":
            server.drain.stall(10_000_000)
            for g in addrs[:8]:
                yield from client.gwrite(g, b"\x01" * size)
        return addrs

    (addrs,) = pool.run(setup(sim))
    victim = addrs[8]

    def crash_and_reattach():
        server.crash()
        server.recover()
        pool.master.on_server_recovered(0)
        yield from client.reattach_server(0)

    reattached = []
    if wait == "ring-space":
        poll, polls = ring.poll, []

        def spy():
            yield from poll()
            polls.append(sim.now)
            # Past four polls the writer's backoff is 16 µs, longer than
            # the crash and the re-attach handshake together.
            if len(polls) == 5:
                reattached.append(sim.spawn(crash_and_reattach()))

        ring.poll = spy
    else:
        held = client._reads.scratch.try_alloc(SCRATCH_BYTES)

    def writer(sim):
        yield from client.gwrite(victim, b"\x02" * size)
        yield from client.gsync()

    def driver(sim):
        if wait == "scratch":
            yield 1_000
            assert ring.written == 0  # the write waits for scratch
            yield from crash_and_reattach()
            client._reads.scratch.free(held, SCRATCH_BYTES)

    torn = server.drain.torn_skipped.count
    pool.run(writer(sim), driver(sim))
    if wait == "ring-space":
        assert reattached and reattached[0].ok
    assert server.drain.torn_skipped.count == torn
    assert server.data_device.peek(offset_of(victim), size) == b"\x02" * size


def test_a_write_parked_on_scratch_does_not_lap_the_ring():
    """Two writers of one client: the first finds a slot free but parks on
    a held scratch region; the second, inline, takes that slot meanwhile.
    Once the scratch comes back, the first must wait for the drain again,
    not reserve the ninth seq of an 8-slot ring over an undrained frame
    (which the drain would skip as torn, losing it silently)."""
    from repro.core.reads import SCRATCH_BYTES

    sim, pool = build_pool(num_servers=1, num_clients=1, max_events=200_000,
                           config=fast_config(proxy_ring_slots=8,
                                              enable_cache=False))
    client, server = pool.clients[0], pool.servers[0]

    def setup(sim):
        addrs = []
        for _ in range(9):
            addrs.append((yield from client.gmalloc(1024)))
        server.drain.stall(200_000)
        for i, g in enumerate(addrs[:7]):
            yield from client.gwrite(g, bytes([i + 1]) * 64)
        return addrs

    (addrs,) = pool.run(setup(sim))
    held = client._reads.scratch.try_alloc(SCRATCH_BYTES)

    def parked(sim):
        yield from client.gwrite(addrs[7], b"\xaa" * 1024)

    def inline(sim):
        yield 500
        yield from client.gwrite(addrs[8], b"\xbb" * 64)
        yield 500
        client._reads.scratch.free(held, SCRATCH_BYTES)

    torn = server.drain.torn_skipped.count
    pool.run(parked(sim), inline(sim))
    pool.run(client.gsync())
    assert server.drain.torn_skipped.count == torn
    for i, g in enumerate(addrs[:7]):
        assert server.data_device.peek(offset_of(g), 64) == bytes([i + 1]) * 64
    assert server.data_device.peek(offset_of(addrs[7]), 1024) == b"\xaa" * 1024
    assert server.data_device.peek(offset_of(addrs[8]), 64) == b"\xbb" * 64
