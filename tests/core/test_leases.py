"""Client leases and fenced lock recovery.

The contract under test: with ``client_lease_ns`` set, live clients renew
transparently (piggybacked on reports or standalone heartbeats) and notice
nothing; a client that stops heartbeating has its write locks recovered,
its pins released, and its proxy rings retired within one lease interval;
and a client that froze past its lease (a link flap: its state survives)
is a *fenced* zombie — every lock op fails typed until it re-attaches
under a fresh epoch.  With leases off nothing changes at all.
"""

import pytest

from repro.core import FencedError, GengarConfig
from repro.core.protocol import (
    MAX_FENCE_EPOCH,
    WRITER_BIT,
    lock_epoch,
    lock_owner,
    write_lock_word,
)
from repro.faults import ClientCrash, FaultPlan, LinkFlap

from tests.core.conftest import build_pool, fast_config, live_drain_loops

LEASE = 100_000


def lease_config(**overrides):
    defaults = dict(client_lease_ns=LEASE)
    defaults.update(overrides)
    return fast_config(**defaults)


# ----------------------------------------------------------------------
# Lock word epoch layout
# ----------------------------------------------------------------------
def test_lock_word_carries_owner_and_epoch():
    word = write_lock_word(7, epoch=3)
    assert word & WRITER_BIT
    assert lock_owner(word) == 7
    assert lock_epoch(word) == 3


def test_epoch_zero_word_is_bit_identical_to_legacy():
    assert write_lock_word(42) == write_lock_word(42, epoch=0)
    assert lock_epoch(write_lock_word(42)) == 0


def test_lock_word_validation():
    with pytest.raises(ValueError):
        write_lock_word(1, epoch=-1)
    with pytest.raises(ValueError):
        write_lock_word(1, epoch=MAX_FENCE_EPOCH + 1)
    assert lock_epoch(write_lock_word(1, epoch=MAX_FENCE_EPOCH)) == MAX_FENCE_EPOCH


# ----------------------------------------------------------------------
# Renewal keeps live clients alive
# ----------------------------------------------------------------------
def test_heartbeats_keep_an_idle_client_alive():
    sim, pool = build_pool(num_servers=1, num_clients=1, config=lease_config())
    client = pool.clients[0]
    assert client.lease_ns == LEASE

    def idle(sim):
        yield sim.timeout(6 * LEASE)

    pool.run(idle(sim))
    assert pool.master.lease_expiries.count == 0
    assert client.m_lease_renewals.count > 0
    assert not client.fenced


def test_reports_piggyback_renewals():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=lease_config(report_every_ops=4))
    client = pool.clients[0]

    def busy(sim):
        gaddr = yield from client.gmalloc(256)
        for _ in range(200):
            yield from client.gwrite(gaddr, b"x" * 32)
            yield sim.timeout(2_000)
        yield from client.gsync()

    pool.run(busy(sim))
    assert pool.master.lease_expiries.count == 0
    assert pool.master.lease_renewals.count > 0


def test_leases_off_means_no_heartbeat_machinery():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    assert client.lease_ns == 0
    assert [ms.heartbeat for ms in client._shards] == [None]
    assert pool.master.lease_renewals.count == 0


# ----------------------------------------------------------------------
# Expiry: locks recovered, pins released, rings retired, zombie fenced
# ----------------------------------------------------------------------
def _locked_victim_pool():
    """client0 takes a lock then dies; returns after its lease expired."""
    sim, pool = build_pool(num_servers=1, num_clients=2, config=lease_config())
    c0, c1 = pool.clients

    def setup(sim):
        gaddr = yield from c0.gmalloc(256)
        yield from c0.gwrite(gaddr, b"A" * 256)
        yield from c0.glock(gaddr)
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    pool.inject_faults(FaultPlan.of(ClientCrash(at_ns=sim.now + 1, client="client0")))

    def wait(sim):
        yield sim.timeout(3 * LEASE)

    pool.run(wait(sim))
    return sim, pool, gaddr


def test_dead_clients_locks_are_recovered_within_a_lease():
    sim, pool, gaddr = _locked_victim_pool()
    c1 = pool.clients[1]
    assert pool.master.lease_expiries.count == 1
    assert pool.master.lock_recoveries.total >= 1

    t0 = sim.now

    def contend(sim):
        yield from c1.glock(gaddr)
        yield from c1.gunlock(gaddr)
        return sim.now - t0

    (took,) = pool.run(contend(sim))
    assert took < LEASE  # no waiting on the dead holder


def test_dead_clients_ring_is_retired():
    sim, pool, _ = _locked_victim_pool()
    server = pool.servers[0]
    assert server.drain.attached("client0") is None
    assert server.drain.attached("client1")
    assert live_drain_loops(server) == 1


def _frozen_victim_pool():
    """client0 takes a lock, then its links flap for three leases: the
    master expires and fences it, while its own state survives."""
    sim, pool = build_pool(num_servers=1, num_clients=2, config=lease_config())
    c0 = pool.clients[0]

    def setup(sim):
        gaddr = yield from c0.gmalloc(256)
        yield from c0.gwrite(gaddr, b"A" * 256)
        yield from c0.glock(gaddr)
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    pool.inject_faults(FaultPlan.of(LinkFlap(
        start_ns=sim.now + 1, end_ns=sim.now + 3 * LEASE, node="client0")))

    def wait(sim):
        yield sim.timeout(3 * LEASE + 10)

    pool.run(wait(sim))
    assert pool.master.lease_expiries.count == 1
    return sim, pool, gaddr


def test_zombie_is_fenced_until_reattach():
    sim, pool, gaddr = _frozen_victim_pool()
    c0 = pool.clients[0]

    def zombie(sim):
        with pytest.raises(FencedError):
            yield from c0.gunlock(gaddr)
        with pytest.raises(FencedError):
            yield from c0.glock(gaddr)
        assert c0.fence_epoch == 0
        yield from c0.reattach_master()
        assert c0.fence_epoch == 1
        # Fully rejoined: lock/write/unlock all work under the new epoch.
        yield from c0.glock(gaddr)
        yield from c0.gwrite(gaddr, b"B" * 256)
        yield from c0.gunlock(gaddr)
        data = yield from c0.gread(gaddr)
        return data

    (data,) = pool.run(zombie(sim))
    assert data == b"B" * 256
    assert c0.m_fence_rejections.count >= 2


def test_word_level_release_fencing_protects_a_reassigned_lock():
    """A fenced release must fail typed even if the zombie's *local* lease
    state looks fresh — the word no longer carries its uid/epoch."""
    sim, pool = build_pool(num_servers=1, num_clients=2, config=lease_config())
    c0, c1 = pool.clients

    def scenario(sim):
        gaddr = yield from c0.gmalloc(128)
        yield from c0.glock(gaddr)
        # Admin eviction recovers the lock while c0's local lease is still
        # fresh (the heartbeat has not been answered "fenced" yet).
        yield from pool.master.evict_client("client0")
        with pytest.raises(FencedError):
            yield from c0.gunlock(gaddr)
        # The lock really is free: the other client takes it immediately.
        yield from c1.glock(gaddr)
        yield from c1.gunlock(gaddr)

    pool.run(scenario(sim))


def test_sweep_honors_a_lease_refreshed_mid_sweep():
    """Regression: the sweeper snapshots expired names, then yields inside
    each victim's recovery RPCs.  A client that renews or re-attaches in
    that window holds a fresh lease at the SAME epoch; processing the stale
    snapshot entry anyway would fence it and clear locks it legitimately
    holds — handing them to a second writer mid-critical-section."""
    sim, pool = build_pool(num_servers=1, num_clients=2, config=lease_config())
    c1 = pool.clients[1]
    master = pool.master

    def scenario(sim):
        gaddr = yield from c1.gmalloc(128)
        yield from c1.glock(gaddr)
        epoch = master._epochs[c1.uid]
        # The sweeper decided client1 was expired, but before _expire_lease
        # got to it, client1 re-attached / renewed: fresh lease, same epoch.
        master.leases.expiry["client1"] = sim.now + LEASE
        yield from master.recovery._expire_lease("client1")
        assert master._epochs[c1.uid] == epoch  # not fenced
        assert "client1" in master.leases.expiry  # lease intact
        # The lock is still client1's: write + release work, no FencedError.
        yield from c1.gwrite(gaddr, b"y" * 128)
        yield from c1.gunlock(gaddr)

    pool.run(scenario(sim))
    assert pool.master.lease_expiries.count == 0
    assert pool.master.lock_recoveries.total == 0


def test_a_renew_verdict_about_a_replaced_epoch_is_dropped(monkeypatch):
    """A renewal carries the epoch the client held when it was sent.  If a
    re-attach grants a fresh epoch while the renewal is out, the master's
    ``fenced`` verdict speaks for the retired incarnation: it must not fence
    the re-attached client, fail its next op or make it re-attach again."""
    sim, pool, gaddr = _frozen_victim_pool()
    c0 = pool.clients[0]
    (shard,) = c0._shards
    master_call = type(shard).call
    renewals = []

    def reattach_while_the_renew_is_out(self, method, payload):
        if self is not shard or method != "renew":
            return (yield from master_call(self, method, payload))
        yield from c0.reattach_master()
        assert c0.fence_epoch > payload["epoch"]
        reply = yield from master_call(self, method, payload)
        renewals.append(reply)
        return reply

    def scenario(sim):
        with monkeypatch.context() as patch:
            patch.setattr(type(shard), "call", reattach_while_the_renew_is_out)
            yield from shard.renew()
        assert renewals == [{"ok": False, "reason": "fenced"}]
        assert not c0._fenced
        # The re-attached incarnation holds the lock word under its epoch.
        yield from c0.glock(gaddr)
        yield from c0.gwrite(gaddr, b"R" * 256)
        yield from c0.gunlock(gaddr)
        return c0.fence_epoch

    (epoch,) = pool.run(scenario(sim))
    assert epoch == 1
    assert c0.m_master_failovers.count == 0  # re-attached by hand, once


def test_zombie_data_plane_ops_are_fenced():
    """Regression: fencing must cover the data plane, not just lock ops —
    a zombie whose locks were recovered must not land one-sided RDMA
    reads/writes (or staged proxy writes) on objects a new holder owns."""
    sim, pool, gaddr = _frozen_victim_pool()
    c0 = pool.clients[0]

    def zombie(sim):
        with pytest.raises(FencedError):
            yield from c0.gwrite(gaddr, b"Z" * 256)
        with pytest.raises(FencedError):
            yield from c0.gread(gaddr)
        with pytest.raises(FencedError):
            yield from c0.gsync()
        # Re-attaching under a fresh epoch restores the data plane.
        yield from c0.reattach_master()
        yield from c0.glock(gaddr)
        yield from c0.gwrite(gaddr, b"W" * 256)
        yield from c0.gunlock(gaddr)
        data = yield from c0.gread(gaddr)
        return data

    (data,) = pool.run(zombie(sim))
    assert data == b"W" * 256
    assert c0.m_fence_rejections.count >= 3


def test_lease_expiry_releases_the_dead_clients_pins():
    sim, pool = build_pool(num_servers=1, num_clients=2, config=lease_config())
    master = pool.master

    def scenario(sim):
        gaddr = yield from pool.clients[0].gmalloc(256)
        yield from master.pin(gaddr, client="client0")
        record = master.directory.get(gaddr)
        assert record.pinned and record.pinned_by == "client0"
        yield from master.evict_client("client0")
        assert not record.pinned and record.pinned_by is None

    pool.run(scenario(sim))


def test_fenced_error_is_not_retryable():
    from repro.core import ClientError, RetryableError
    assert issubclass(FencedError, ClientError)
    assert not issubclass(FencedError, RetryableError)
