"""Integration tests for the proxy write path."""

import pytest

from repro import obs
from repro.core.addressing import offset_of
from repro.core.server import ServerError

from tests.core.conftest import build_pool, fast_config, live_drain_loops


def test_proxy_write_faster_than_direct_nvm_write():
    """The headline claim: staging in server DRAM beats writing NVM inline."""
    size = 2048

    def measure(config):
        sim, pool = build_pool(num_servers=1, num_clients=1, config=config)
        client = pool.clients[0]

        def app(sim):
            gaddr = yield from client.gmalloc(size)
            times = []
            for i in range(30):
                t0 = sim.now
                yield from client.gwrite(gaddr, bytes([i % 256]) * size)
                times.append(sim.now - t0)
            return sum(times) / len(times)

        (avg,) = pool.run(app(sim))
        return avg

    proxy_avg = measure(fast_config(enable_cache=False, enable_proxy=True))
    direct_avg = measure(fast_config(enable_cache=False, enable_proxy=False))
    assert proxy_avg < direct_avg, (
        f"proxy writes ({proxy_avg:.0f} ns) must beat direct NVM writes "
        f"({direct_avg:.0f} ns)"
    )


def test_proxy_drain_reaches_nvm():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(256)
        yield from client.gwrite(gaddr, b"drained!" + bytes(248))
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(app(sim))
    server = pool.servers[0]
    assert server.data_device.peek(offset_of(gaddr), 8) == b"drained!"
    assert server.drain.drained_writes.count == 1


def test_read_your_writes_before_drain():
    """A read immediately after an (unsynced) write returns the new data."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"fresh" + bytes(59))
        data = yield from client.gread(gaddr, length=5)  # no gsync!
        return data

    (data,) = pool.run(app(sim))
    assert data == b"fresh"
    assert pool.clients[0].m_overlay_hits.count == 1


def test_writes_drain_in_order():
    """Back-to-back proxy writes to one object apply in program order —
    also once the ring backs up past half full and the drain overlaps its
    NVM writes: repeated writes to one object at different offsets and
    lengths, mixed with writes to other objects, land in program order,
    and every read in between sees the client's own writes."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        for i in range(10):
            yield from client.gwrite(gaddr, bytes([i]) * 64)
        yield from client.gsync()
        data = yield from client.gread(gaddr, length=64)
        return data

    (data,) = pool.run(app(sim))
    assert data == bytes([9]) * 64  # the last write wins

    # Backed up: each round starts behind a drain stall that fills the
    # 8-slot ring, so the round's first frames drain overlapped.  A full
    # write of the hot object and the short write right behind it are in
    # flight together unless the second waits for the first.
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(enable_cache=False))
    rec = obs.install(sim)
    client, server = pool.clients[0], pool.servers[0]
    size = 1024
    shadow = {}
    # (object, offset, length) per write of a round; 0 is the hot object.
    plan = [(0, 0, 16), (1, 0, size), (0, 0, size), (0, 200, 16),
            (2, 0, size), (0, 800, 200), (0, 400, 16), (3, 0, size),
            (0, 600, 16), (1, 0, size)]

    def backed_up(sim):
        objs = []
        for _ in range(4):
            objs.append((yield from client.gmalloc(size)))
        for g in objs:
            shadow[g] = bytearray(size)
        for r in range(4):
            server.drain.stall(15_000)
            for j, (k, offset, length) in enumerate(plan):
                g = objs[k]
                data = bytes([(r * len(plan) + j + 1) % 256]) * length
                yield from client.gwrite(g, data, offset=offset)
                shadow[g][offset:offset + length] = data
                # Read-your-writes on the range just written (overlay).
                got = yield from client.gread(g, offset=offset, length=length)
                assert got == data, (r, j)
            # The whole hot object: a gsync, then a remote read.
            got = yield from client.gread(objs[0])
            assert got == bytes(shadow[objs[0]]), r
        yield from client.gsync()

    pool.run(backed_up(sim))
    for g, want in shadow.items():
        assert server.data_device.peek(offset_of(g), size) == bytes(want)
    overlapped = [s for s in rec.by_name("srv.drain") if s.fields["overlapped"]]
    assert len(overlapped) >= 16


def test_overlapped_drain_shares_the_channels_with_serial_rings():
    """One ring backed up and drained overlapped beside another draining
    serially: an overlapped frame starts only while fewer frame applies
    than the device has channels are in flight, the serial ring's
    included, so the overlap takes only channels the serial drain leaves
    idle."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=fast_config(enable_cache=False,
                                              proxy_ring_slots=16))
    rec = obs.install(sim)
    (busy, steady), server = pool.clients, pool.servers[0]
    device = server.data_device
    inflight = {"now": 0, "overlapped_starts": []}
    write = device.write

    def counted_write(offset, payload):
        if len(payload) == 4000:  # a frame of the backed-up ring
            inflight["overlapped_starts"].append(inflight["now"])
        inflight["now"] += 1
        yield from write(offset, payload)
        inflight["now"] -= 1

    release = {}

    def burst(sim):
        addrs = []
        for _ in range(16):
            addrs.append((yield from busy.gmalloc(4000)))
        server.drain.stall(40_000)
        release["at"] = sim.now + 40_000
        for i, g in enumerate(addrs):
            yield from busy.gwrite(g, bytes([i + 1]) * 4000)
        yield from busy.gsync()

    def trickle(sim):
        g = yield from steady.gmalloc(1024)
        while "at" not in release:
            yield 1_000
        yield release["at"] - sim.now  # busy's backlog is draining now
        for i in range(12):
            yield from steady.gwrite(g, bytes([i + 1]) * 1024)
            yield 1_000
        yield from steady.gsync()

    device.write = counted_write
    pool.run(burst(sim), trickle(sim))
    spans = rec.by_name("srv.drain")
    assert any(s.fields["overlapped"] for s in spans)
    assert any(not s.fields["overlapped"] and s.fields["client"] == steady.name
               for s in spans)
    starts = inflight["overlapped_starts"]
    assert len(starts) == 16
    assert max(starts) == device.spec.channels - 1


def test_ring_backpressure_throttles_but_never_loses_writes():
    """More writes than ring slots: flow control kicks in, all writes land."""
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config(proxy_ring_slots=4, enable_cache=False),
    )
    client = pool.clients[0]
    n = 40

    def app(sim):
        addrs = []
        for _ in range(n):
            g = yield from client.gmalloc(1024)
            addrs.append(g)
        for i, g in enumerate(addrs):
            yield from client.gwrite(g, bytes([i % 256]) * 1024)
        yield from client.gsync()
        return addrs

    (addrs,) = pool.run(app(sim))
    server = pool.servers[0]
    assert server.drain.drained_writes.count == n
    for i, g in enumerate(addrs):
        assert server.data_device.peek(offset_of(g), 4) == bytes([i % 256]) * 4


def test_a_write_larger_than_a_slot_stages_as_frame_groups():
    """A 100 KiB write over an 8-slot ring of 4 KiB slots is 26 frames:
    three full groups of 8 and one of 2, staged in order, each applied as
    one NVM write — and nothing goes one-sided to NVM."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    data = bytes(i % 251 for i in range(100 * 1024))

    def app(sim):
        gaddr = yield from client.gmalloc(len(data))
        yield from client.gwrite(gaddr, data)
        yield from client.gsync()
        return gaddr, (yield from client.gread(gaddr))

    ((gaddr, back),) = pool.run(app(sim))
    server = pool.servers[0]
    assert back == data
    assert server.data_device.peek(offset_of(gaddr), len(data)) == data
    assert server.drain.drained_writes.count == 4
    assert client.m_direct_writes.count == 0
    assert client.m_proxy_writes.count == 1


def test_gsync_waits_for_all_pending_writes():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        # Objects on both servers, written without syncing.
        addrs = []
        for _ in range(8):
            g = yield from client.gmalloc(512)
            addrs.append(g)
            yield from client.gwrite(g, b"sync-me!" + bytes(504))
        yield from client.gsync()
        # After gsync, nothing is pending anywhere.
        for conn in client._conns.values():
            assert conn.ring.drained_known >= conn.ring.written
            assert not conn.ring.overlay
        return addrs

    (addrs,) = pool.run(app(sim))
    from repro.core.addressing import offset_of, server_of

    for g in addrs:
        server = pool.servers[server_of(g)]
        assert server.data_device.peek(offset_of(g), 8) == b"sync-me!"


def test_gsync_covers_earlier_frames_a_later_one_overtook():
    """In a backed-up ring a small frame to one object finishes before the
    large frame staged ahead of it to another; the drained counter still
    waits for the large one, so when gsync returns every earlier frame is
    in NVM."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(enable_cache=False))
    rec = obs.install(sim)
    client, server = pool.clients[0], pool.servers[0]

    def app(sim):
        big = yield from client.gmalloc(4000)
        small = []
        for _ in range(5):
            small.append((yield from client.gmalloc(16)))
        server.drain.stall(20_000)
        yield from client.gwrite(big, b"B" * 4000)
        for i, g in enumerate(small):
            yield from client.gwrite(g, bytes([i + 1]) * 16)
        yield from client.gsync()
        # The instant gsync returns: everything it covers is durable.
        assert server.data_device.peek(offset_of(big), 4000) == b"B" * 4000
        for i, g in enumerate(small):
            assert server.data_device.peek(offset_of(g), 16) == bytes([i + 1]) * 16

    pool.run(app(sim))
    ends = {s.fields["seq"]: s.end_ns for s in rec.by_name("srv.drain")}
    assert ends[2] < ends[1]  # the later small frame was applied first
    assert all(s.fields["overlapped"] for s in rec.by_name("srv.drain"))


def test_proxy_ack_latency_independent_of_nvm_speed():
    """With a much slower NVM, proxy write latency barely changes (the NVM
    cost is off the critical path), while direct writes get slower."""
    from repro.hardware.specs import SLOW_NVM, TEST_NVM

    def measure(nvm_spec, proxy):
        config = fast_config(enable_cache=False, enable_proxy=proxy,
                             proxy_ring_slots=64)
        from repro.core import GengarPool
        from repro.hardware.specs import TEST_DRAM
        from repro.sim import Simulator

        sim = Simulator(seed=3)
        pool = GengarPool.build(
            sim, num_servers=1, num_clients=1, config=config,
            dram=TEST_DRAM, nvm=nvm_spec.with_capacity(TEST_NVM.capacity_bytes),
        )
        client = pool.clients[0]

        def app(sim):
            gaddr = yield from client.gmalloc(2048)
            times = []
            for i in range(20):
                t0 = sim.now
                yield from client.gwrite(gaddr, bytes([i]) * 2048)
                times.append(sim.now - t0)
                yield sim.timeout(50_000)  # paced: ring never fills
            return sum(times) / len(times)

        (avg,) = pool.run(app(sim))
        return avg

    proxy_fast = measure(TEST_NVM, proxy=True)
    proxy_slow = measure(SLOW_NVM, proxy=True)
    direct_fast = measure(TEST_NVM, proxy=False)
    direct_slow = measure(SLOW_NVM, proxy=False)
    # Paced proxy writes barely notice NVM speed...
    proxy_delta = proxy_slow - proxy_fast
    direct_delta = direct_slow - direct_fast
    assert proxy_slow < proxy_fast * 1.25
    # ...while direct writes absorb the full extra NVM cost on their
    # critical path (at least ~3x the proxy's degradation).
    assert direct_delta > 300
    assert direct_delta > 3 * max(proxy_delta, 1)


# ----------------------------------------------------------------------
# The drain's stall gate (fault injection)
# ----------------------------------------------------------------------
def _stage_and_sync(client, gaddr):
    """Stage one write and wait for it to drain; returns the wait."""
    def run(sim):
        yield from client.gwrite(gaddr, b"s" * 64)
        t0 = sim.now
        yield from client.gsync()
        return sim.now - t0
    return run


def test_a_stall_inside_a_stall_keeps_the_first_release_time():
    """A second stall while the first holds is a no-op: the frame staged
    after it drains when the first stall releases, not the second."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client, drain = pool.clients[0], pool.servers[0].drain
    rec = obs.install(sim)

    def scenario(sim):
        g = yield from client.gmalloc(64)
        t0 = sim.now
        drain.stall(20_000)
        yield 10_000
        drain.stall(100_000)  # inside the first: a no-op
        yield from _stage_and_sync(client, g)(sim)
        return t0, sim.now

    ((t0, t_synced),) = pool.run(scenario(sim))
    assert t_synced >= t0 + 20_000
    assert [e.fields for e in rec.events
            if e.message == "drain loops stalled"] == [{"duration_ns": 20_000}]
    assert [e.time_ns for e in rec.events
            if e.message == "drain loops released"] == [t0 + 20_000]


def test_a_crash_opens_the_stall_gate_and_a_later_stall_arms_a_fresh_one():
    """A crash opens the gate at once, so a stalled loop reaches its
    poison and exits; after the restart a stall arms a new gate that
    holds the next frame for its own duration."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client, server = pool.clients[0], pool.servers[0]
    drain = server.drain
    rec = obs.install(sim)

    def stalled_crash(sim):
        g = yield from client.gmalloc(64)
        drain.stall(10_000_000)
        yield from client.gwrite(g, b"x" * 64)  # held by the stalled loop
        server.crash()
        yield 1_000
        return g

    (g,) = pool.run(stalled_crash(sim))
    # The gate opened at the crash: the stalled loop took its poison and
    # exited long before the stall's own release time.
    assert sim.now < 10_000_000 and live_drain_loops(server) == 0
    server.recover()
    pool.master.on_server_recovered(0)
    pool.run(client.reattach_server(0))

    def second_stall(sim):
        t0 = sim.now
        drain.stall(30_000)  # the crash left no gate armed
        yield from _stage_and_sync(client, g)(sim)
        return t0, sim.now

    ((t0, t_synced),) = pool.run(second_stall(sim))
    assert t_synced >= t0 + 30_000
    assert [e.time_ns for e in rec.events
            if e.message == "drain loops released"] == [t0 + 30_000]


@pytest.mark.parametrize("duration_ns", [0, -5])
def test_a_stall_shorter_than_one_ns_is_refused(duration_ns):
    sim, pool = build_pool(num_servers=1, num_clients=1)
    with pytest.raises(ServerError, match="stall duration must be positive"):
        pool.servers[0].drain.stall(duration_ns)
