"""A killed client comes back only as a new incarnation.

The contract under test: ``restart()`` forgets every volatile field, and
its attach shows each master shard the old uid and epoch, so each shard
recovers the old incarnation (locks, pins, rings, intents) before it grants
the new one an epoch — no lease has to lapse first.  The two id counters
survive, so nothing the new incarnation mints can be mistaken for the old
one's.  An op begun before the restart fails typed and leaves the new
incarnation alone.
"""

from dataclasses import replace

import pytest

from repro.core import FencedError, consistency, server_of
from repro.core.protocol import lock_epoch, lock_owner

from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool, fast_config

LEASE = 100_000


def lease_config(**overrides):
    return fast_config(client_lease_ns=LEASE, **overrides)


def test_a_restart_frees_the_old_incarnations_locks_on_every_shard():
    sim, pool = build_pool(
        num_servers=2, num_clients=2,
        config=lease_config(num_master_shards=2, metadata_journal=True),
        max_events=FUZZ_MAX_EVENTS)
    c0, c1 = pool.clients
    # A lock still held after one lease raises DeadlineExceededError.
    c1.retry_policy = replace(c1.retry_policy, deadline_ns=LEASE)

    def hold(sim):
        by_server = {}
        while len(by_server) < 2:
            gaddr = yield from c0.gmalloc(64)
            by_server.setdefault(server_of(gaddr), gaddr)
        for gaddr in by_server.values():
            yield from c0.glock(gaddr)
        return sorted(by_server.values())

    (held,) = pool.run(hold(sim))
    c0.crash()
    pool.run(c0.restart())
    assert c0.fence_epoch == 1

    def take(sim):
        waits = []
        for gaddr in held:
            t0 = sim.now
            yield from c1.glock(gaddr)
            waits.append(sim.now - t0)
            yield from c1.gunlock(gaddr)
        return waits

    (waits,) = pool.run(take(sim))
    assert max(waits) < LEASE
    # Both shards count into one pool-wide counter.
    assert pool.master.lease_expiries.count == 0
    assert pool.master.lock_recoveries.total == 2


def test_a_restarted_client_mints_fresh_ids():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=lease_config())
    client = pool.clients[0]

    def before(sim):
        gaddr = yield from client.gmalloc(64)
        txn = yield from client.txn.begin([gaddr])
        txn.write(gaddr, b"a" * 8)
        yield from client.txn.commit(txn)
        return gaddr, txn.id

    ((old_gaddr, old_txn),) = pool.run(before(sim))
    client.crash()
    pool.run(client.restart())

    def after(sim):
        gaddr = yield from client.gmalloc(64)
        txn = yield from client.txn.begin([gaddr])
        yield from client.txn.commit(txn)
        return gaddr, txn.id

    ((new_gaddr, new_txn),) = pool.run(after(sim))
    assert new_gaddr != old_gaddr
    assert pool.master.directory.get(old_gaddr) is not None
    assert new_txn != old_txn


def test_a_lock_op_begun_before_the_restart_fails_typed(monkeypatch):
    # The first spin on a held word sleeps exactly LOCK_RETRY_NS.
    monkeypatch.setattr(consistency, "LOCK_RETRY_NS", 200_000)
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=lease_config(), max_events=FUZZ_MAX_EVENTS)
    c0, c1 = pool.clients

    def setup(sim):
        gaddr = yield from c1.gmalloc(64)
        yield from c1.glock(gaddr)
        return gaddr

    (gaddr,) = pool.run(setup(sim))

    def stale(sim):
        with pytest.raises(FencedError, match="before this client restarted"):
            yield from c0.glock(gaddr)  # sleeps through the kill

    def restart(sim):
        yield sim.timeout(50_000)
        c0.crash()
        yield sim.timeout(10_000)
        yield from c0.restart()
        yield sim.timeout(200_000)  # the stale glock has woken and failed
        assert not c0.fenced
        yield from c1.gunlock(gaddr)
        yield from c0.glock(gaddr)
        word = pool.servers[0].lock_mr.read_u64(
            pool.master.directory.get(gaddr).lock_idx * 8)
        yield from c0.gunlock(gaddr)
        return word

    _, word = pool.run(stale(sim), restart(sim))
    assert (lock_owner(word), lock_epoch(word)) == (c0.uid, 1)


def test_a_retried_op_begun_before_the_restart_fails_typed():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=lease_config(), max_events=FUZZ_MAX_EVENTS)
    client = pool.clients[0]
    server = pool.servers[0]
    # A failed attempt backs off for exactly 200 us.
    client.retry_policy = replace(client.retry_policy,
                                  base_backoff_ns=200_000,
                                  max_backoff_ns=200_000)

    def setup(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"v" * 64)
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    server.crash()

    def stale(sim):
        with pytest.raises(FencedError, match="before this client restarted"):
            yield from client.gread(gaddr)  # backs off through the kill

    def restart(sim):
        yield sim.timeout(100_000)
        client.crash()
        server.recover()
        pool.master.on_server_recovered(0)
        yield sim.timeout(10_000)
        yield from client.restart()
        yield sim.timeout(200_000)
        assert not client.fenced
        return (yield from client.gread(gaddr))

    _, data = pool.run(stale(sim), restart(sim))
    assert data == b"v" * 64
