"""Integration tests: pool boot, allocation, reads/writes, errors."""

import pytest

from repro.core import ClientError, FatalError, GengarPool, server_of
from repro.core.config import NVM_DIRECT

from tests.core.conftest import build_pool, fast_config


def test_boot_attaches_all_clients(pool2x2):
    sim, pool = pool2x2
    assert len(pool.clients) == 2
    assert all(c._attached for c in pool.clients)
    assert len(pool.servers) == 2
    assert sim.now > 0  # the handshake took virtual time


def test_gmalloc_gives_distinct_addresses(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for _ in range(8):
            addrs.append((yield from client.gmalloc(1024)))
        return addrs

    (addrs,) = pool.run(app(sim))
    assert len(set(addrs)) == 8
    # Round-robin placement spreads objects across both servers.
    assert {server_of(g) for g in addrs} == {0, 1}


def test_write_then_read_roundtrip(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]
    payload = bytes(range(256)) * 8  # 2 KiB

    def app(sim):
        gaddr = yield from client.gmalloc(len(payload))
        yield from client.gwrite(gaddr, payload)
        data = yield from client.gread(gaddr)
        return data

    (data,) = pool.run(app(sim))
    assert data == payload


def test_read_after_sync_comes_from_nvm(pool2x2):
    """After gsync, the data is durable in NVM and readable remotely."""
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(512)
        yield from client.gwrite(gaddr, b"durable" + bytes(505))
        yield from client.gsync()
        data = yield from client.gread(gaddr, length=7)
        return gaddr, data

    (result,) = pool.run(app(sim))
    gaddr, data = result
    assert data == b"durable"
    # Verify directly against the home server's NVM device.
    server = pool.server_for(gaddr)
    from repro.core.addressing import offset_of

    assert server.data_device.peek(offset_of(gaddr), 7) == b"durable"


def test_partial_reads_and_writes(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(1024)
        yield from client.gwrite(gaddr, b"A" * 1024)
        yield from client.gwrite(gaddr, b"BBBB", offset=100)
        yield from client.gsync()
        chunk = yield from client.gread(gaddr, offset=98, length=8)
        return chunk

    (chunk,) = pool.run(app(sim))
    assert chunk == b"AABBBBAA"


def test_cross_client_visibility_after_sync(pool2x2):
    """A second client sees data the first wrote and synced."""
    sim, pool = pool2x2
    writer, reader = pool.clients

    def writer_app(sim):
        gaddr = yield from writer.gmalloc(128)
        yield from writer.gwrite(gaddr, b"shared-data" + bytes(117))
        yield from writer.gsync()
        return gaddr

    (gaddr,) = pool.run(writer_app(sim))

    def reader_app(sim):
        data = yield from reader.gread(gaddr, length=11)
        return data

    (data,) = pool.run(reader_app(sim))
    assert data == b"shared-data"


def test_gfree_releases_space():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    master = pool.master

    def app(sim):
        gaddr = yield from client.gmalloc(4096)
        before = len(master.directory)
        yield from client.gfree(gaddr)
        return gaddr, before

    (result,) = pool.run(app(sim))
    gaddr, before = result
    assert before == 1
    assert len(master.directory) == 0
    assert gaddr not in master.directory


def test_read_of_freed_object_fails(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gfree(gaddr)
        try:
            yield from client.gread(gaddr)
        except FatalError as exc:
            assert "unknown object" in str(exc)
            return "lookup-failed"

    (outcome,) = pool.run(app(sim))
    assert outcome == "lookup-failed"


@pytest.mark.parametrize("size, message", [
    (0, "gmalloc size must be positive"),
    (1 << 40, "OutOfMemory"),
], ids=["zero", "oversize"])
def test_a_refused_gmalloc_is_a_fatal_error(pool2x2, size, message):
    """The master's refusal reaches the caller as the :class:`FatalError`
    that ``core/errors.py`` promises, with the master's message."""
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        try:
            yield from client.gmalloc(size)
        except FatalError as exc:
            return str(exc)

    (msg,) = pool.run(app(sim))
    assert message in msg


@pytest.mark.parametrize("second", [0, 1], ids=["by-owner", "by-another-client"])
def test_freeing_a_freed_object_is_a_fatal_error(pool2x2, second):
    sim, pool = pool2x2
    owner = pool.clients[0]

    def app(sim):
        gaddr = yield from owner.gmalloc(128)
        yield from owner.gfree(gaddr)
        try:
            yield from pool.clients[second].gfree(gaddr)
        except FatalError as exc:
            return str(exc)

    (msg,) = pool.run(app(sim))
    assert "unknown object" in msg


#: Every verb that takes an address, run on one.
ADDRESS_VERBS = {
    "gread": lambda client, gaddr: client.gread(gaddr),
    "gread_many": lambda client, gaddr: client.gread_many([gaddr]),
    "gwrite": lambda client, gaddr: client.gwrite(gaddr, b"x"),
    "glock": lambda client, gaddr: client.glock(gaddr),
    "gunlock": lambda client, gaddr: client.gunlock(gaddr),
    "gfree": lambda client, gaddr: client.gfree(gaddr),
}


@pytest.mark.parametrize("lease_ns", [0, 100_000],
                         ids=["leases-off", "leases-on"])
@pytest.mark.parametrize("gaddr", [-1, 1 << 64], ids=["negative", "past-64-bits"])
@pytest.mark.parametrize("verb", list(ADDRESS_VERBS))
def test_a_malformed_address_is_a_fatal_error(verb, gaddr, lease_ns):
    """An address that is no 64-bit address fails the verb with the
    :class:`FatalError` that ``core/errors.py`` promises."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(client_lease_ns=lease_ns))
    client = pool.clients[0]

    def app(sim):
        try:
            yield from ADDRESS_VERBS[verb](client, gaddr)
        except ClientError as exc:
            return exc

    (exc,) = pool.run(app(sim))
    assert isinstance(exc, FatalError)
    assert "is not a 64-bit address" in str(exc)


def test_out_of_bounds_access_rejected(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(128)
        try:
            yield from client.gread(gaddr, offset=100, length=64)
        except ClientError:
            pass
        else:
            return "read should have failed"
        try:
            yield from client.gwrite(gaddr, b"x" * 200)
        except ClientError:
            return "ok"
        return "write should have failed"

    (outcome,) = pool.run(app(sim))
    assert outcome == "ok"


def test_empty_write_rejected(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        try:
            yield from client.gwrite(gaddr, b"")
        except ClientError:
            return "ok"

    (outcome,) = pool.run(app(sim))
    assert outcome == "ok"


def test_unattached_client_rejected():
    sim, pool = build_pool()
    from repro.core.client import GengarClient

    lone = GengarClient(pool.cluster.node("client0"), pool.config, name="lone")
    with pytest.raises(ClientError):
        next(lone.gread(0))


def test_attach_reply_carries_only_the_session():
    """Clients are built with the pool's config; the master's attach reply
    carries the session (servers, uid, epoch, lease, location-log cursor)
    and nothing else."""
    sim, pool = build_pool()
    assert all(c.config is pool.config for c in pool.clients)
    (reply,) = pool.run(pool.master._handle_attach({"client": "probe"}))
    assert set(reply) == {"servers", "client_id", "epoch", "lease_ns", "log"}


def test_deterministic_across_runs():
    """Same seed, same workload -> identical virtual-time trace."""

    def run_once():
        sim, pool = build_pool(seed=7)
        client = pool.clients[0]

        def app(sim):
            stamps = []
            gaddr = yield from client.gmalloc(1024)
            for i in range(10):
                yield from client.gwrite(gaddr, bytes([i]) * 100)
                yield from client.gread(gaddr, length=100)
                stamps.append(sim.now)
            return stamps

        (stamps,) = pool.run(app(sim))
        return stamps

    assert run_once() == run_once()


def test_nvm_direct_config_never_uses_cache_or_proxy():
    sim, pool = build_pool(config=fast_config(enable_cache=False, enable_proxy=False))
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(1024)
        for _ in range(20):
            yield from client.gwrite(gaddr, b"z" * 1024)
            yield from client.gread(gaddr)

    pool.run(app(sim))
    snap = pool.metrics_snapshot()
    assert snap["proxy_writes"] == 0
    assert snap["direct_writes"] == 20
    assert snap["cache_hits"] == 0


def test_metrics_snapshot_counts(pool2x2):
    sim, pool = pool2x2
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(256)
        yield from client.gwrite(gaddr, b"m" * 256)
        yield from client.gread(gaddr)

    pool.run(app(sim))
    snap = pool.metrics_snapshot()
    assert snap["reads"] == 1
    assert snap["writes"] == 1
    assert snap["read_latency_mean_ns"] > 0
    assert snap["write_latency_mean_ns"] > 0
