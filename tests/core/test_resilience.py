"""Client-side resilience: typed errors, retries, deadlines, ring stalls.

The contract under test: every client retries a failed op, re-attaching
first, so a transient outage is ridden out transparently and a lasting one
surfaces as a *typed* error once the retry budget is spent; the deadline
watchdog converts open-ended stalls into :class:`DeadlineExceededError`; and
a stalled proxy ring is waited out, never bypassed.
"""

import pytest

from repro.core import (
    ClientError,
    DeadlineExceededError,
    RetryableError,
    RetryPolicy,
    ServerUnavailableError,
)
from repro.core.protocol import CACHE_TAG_BYTES
from repro.faults import FaultPlan, ServerCrash, ServerRecover
from repro.rdma.qp import RETRY_TIMEOUT_NS

from tests.core.conftest import build_pool, fast_config


def _write_one(pool, sim, client, size=64, payload=None):
    payload = payload or bytes(size)

    def setup(sim):
        gaddr = yield from client.gmalloc(size)
        yield from client.gwrite(gaddr, payload)
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    return gaddr


def test_dead_server_raises_typed_server_unavailable():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    gaddr = _write_one(pool, sim, client)
    pool.servers[0].crash()

    def read(sim):
        try:
            yield from client.gread(gaddr)
        except ClientError as exc:
            return exc

    (exc,) = pool.run(read(sim))
    assert isinstance(exc, ServerUnavailableError)
    assert isinstance(exc, RetryableError)  # the retryable branch of the tree
    assert exc.server_id == 0
    # Raised once the whole budget was spent, every retry re-attaching.
    assert client.m_retries.count == client.retry_policy.max_attempts - 1
    assert client.m_failovers.count == 0  # the server never came back


def test_retry_timeout_knob_bounds_dead_peer_detection():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    gaddr = _write_one(pool, sim, client)
    pool.servers[0].crash()
    t0 = sim.now

    def read(sim):
        try:
            yield from client.gread(gaddr)
        except ClientError:
            return sim.now - t0

    (took,) = pool.run(read(sim))
    # Every attempt waits out one RC retransmission timeout.
    assert took >= client.retry_policy.max_attempts * RETRY_TIMEOUT_NS


def test_retries_ride_out_a_transient_outage():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    gaddr = _write_one(pool, sim, client, payload=b"sturdy!" + bytes(57))
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ServerCrash(at_ns=t0 + 5_000, server_id=0),
        ServerRecover(at_ns=t0 + 200_000, server_id=0),
    ))

    def read(sim):
        yield sim.timeout(10_000)  # land inside the outage
        data = yield from client.gread(gaddr, length=7)
        # A read can land on the recovered server before any re-attach;
        # a write cannot (the restart tore its ring down), so by the end
        # of this one the session has re-attached.
        yield from client.gwrite(gaddr, b"again!!")
        yield from client.gsync()
        return data

    (data,) = pool.run(read(sim))
    assert data == b"sturdy!"  # no exception escaped: the op self-healed
    assert client.m_retries.count > 0
    assert client.m_failovers.count == 1
    assert len(client.fault_log) == 1
    record = client.fault_log[0]
    assert record["server_id"] == 0
    assert record["lost"] == []  # everything was gsync'ed pre-crash


def test_deadline_converts_a_stall_into_a_typed_error():
    config = fast_config(
        op_deadline_ns=15_000,  # tighter than one dead-peer detection
    )
    sim, pool = build_pool(num_servers=1, num_clients=1, config=config)
    client = pool.clients[0]
    gaddr = _write_one(pool, sim, client)
    pool.servers[0].crash()
    t0 = sim.now

    def read(sim):
        try:
            yield from client.gread(gaddr)
        except ClientError as exc:
            return exc, sim.now - t0

    (result,) = pool.run(read(sim))
    exc, took = result
    assert isinstance(exc, DeadlineExceededError)
    assert client.m_deadline_misses.count >= 1
    # The watchdog fired at the deadline, not at the retry horizon.
    assert took < RETRY_TIMEOUT_NS


def test_a_write_unlock_lookup_honours_the_deadline():
    """The write-unlock's metadata lookup runs under the op deadline: with
    the master down and the metadata dropped after the acquire, ``gunlock``
    fails typed at the deadline instead of spending its retry budget."""
    deadline = 15_000
    config = fast_config(op_deadline_ns=deadline)
    sim, pool = build_pool(num_servers=1, num_clients=1, config=config)
    client = pool.clients[0]

    def lock(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.glock(gaddr, write=True)
        return gaddr

    (gaddr,) = pool.run(lock(sim))
    client._metas.drop(gaddr)
    pool.master.crash()
    t0 = sim.now

    def unlock(sim):
        try:
            yield from client.gunlock(gaddr, write=True)
        except ClientError as exc:
            return exc, sim.now - t0

    ((exc, took),) = pool.run(unlock(sim))
    assert isinstance(exc, DeadlineExceededError)
    assert took <= deadline
    assert client.m_deadline_misses.count == 1


def test_a_deadline_abandons_a_direct_write_that_then_finishes():
    """Why a deadline abandons its attempt rather than stopping it.

    Proxy off, the object pinned in DRAM: a write looks its metadata up,
    updates NVM, then the DRAM copy (a tag READ, then a WRITE).  The deadline
    fires during the tag READ.  The caller gets the typed error at once; the
    abandoned attempt runs on and refreshes the DRAM copy, so the cache never
    serves bytes NVM does not hold.  An attempt stopped at the deadline would
    never post the WRITE and leave the copy stale.
    """
    config = fast_config(enable_proxy=False, enable_cache=True,
                         metadata_cache=False, op_deadline_ns=5_500)
    sim, pool = build_pool(num_servers=1, num_clients=1, config=config)
    client, master, server = pool.clients[0], pool.master, pool.servers[0]
    old, new = b"A" * 128, b"B" * 128

    def setup(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, old)
        yield from master.pin(gaddr)
        hits = client.m_cache_hits.count
        data = yield from client.gread(gaddr)
        return gaddr, data, client.m_cache_hits.count - hits

    ((gaddr, data, hits),) = pool.run(setup(sim))
    record = master.directory.get(gaddr)
    assert (data, hits) == (old, 1)

    def copies():
        return (server.data_mr.peek(record.nvm_offset, 128),
                server.cache_mr.peek(record.cache_offset + CACHE_TAG_BYTES, 128))

    def write(sim):
        with pytest.raises(DeadlineExceededError):
            yield from client.gwrite(gaddr, new)
        return copies()

    (at_deadline,) = pool.run(write(sim))
    assert at_deadline == (new, old)  # NVM written, the DRAM copy not yet
    assert client.m_deadline_misses.count == 1

    def later(sim):
        yield 20_000  # the abandoned attempt finishes meanwhile
        hits = client.m_cache_hits.count
        data = yield from client.gread(gaddr)
        return data, client.m_cache_hits.count - hits

    (result,) = pool.run(later(sim))
    assert result == (new, 1)  # served from the cache
    assert copies() == (new, new)


def test_a_writer_waits_out_a_stalled_ring():
    config = fast_config()
    sim, pool = build_pool(num_servers=1, num_clients=1, config=config)
    client = pool.clients[0]
    server = pool.servers[0]
    slots = config.proxy_ring_slots
    stall_ns = 300_000

    def app(sim):
        gaddrs = []
        for _ in range(slots + 1):
            gaddrs.append((yield from client.gmalloc(256)))
        server.drain.stall(stall_ns)
        t0 = sim.now
        for i, g in enumerate(gaddrs):
            yield from client.gwrite(g, bytes([i + 1]) * 256)
        return sim.now - t0

    (took,) = pool.run(app(sim))
    assert took >= stall_ns  # the overflow write waited for the drain
    assert client.m_direct_writes.count == 0


def test_fault_free_virtual_time_is_unchanged_by_arming_resilience():
    """Pay-as-you-go: the retry budget must not perturb a clean run."""

    def run(policy):
        sim, pool = build_pool(num_servers=2, num_clients=2)
        a, b = pool.clients
        a.retry_policy = b.retry_policy = policy

        def app(sim, client, tag):
            gaddrs = []
            for i in range(8):
                g = yield from client.gmalloc(128)
                yield from client.gwrite(g, bytes([tag + i]) * 128)
                gaddrs.append(g)
            yield from client.gsync()
            out = []
            for g in gaddrs:
                out.append((yield from client.gread(g, length=8)))
            return out

        results = pool.run(app(sim, a, 1), app(sim, b, 100))
        return sim.now, results

    t_plain, r_plain = run(RetryPolicy(max_attempts=1))
    t_armed, r_armed = run(RetryPolicy())
    assert r_plain == r_armed
    assert t_plain == t_armed


def test_retry_policy_backoff_is_bounded_and_reproducible():
    import random

    policy = RetryPolicy(max_attempts=6, base_backoff_ns=1_000,
                         max_backoff_ns=8_000)
    a = [policy.backoff_ns(i, random.Random(3)) for i in range(1, 7)]
    b = [policy.backoff_ns(i, random.Random(3)) for i in range(1, 7)]
    assert a == b  # same stream state, same jitter
    for i, delay in enumerate(a, start=1):
        # The step doubles per attempt and stops at the cap.
        assert 1_000 <= delay <= min(1_000 << (i - 1), 8_000)
    assert a[0] == 1_000  # no room to jitter below the first step

