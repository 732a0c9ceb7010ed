"""Master crash and journal-driven failover.

The contract under test: a dead master fails control-plane ops with the
retryable :class:`PartitionSuspected` once the retry budget is spent (the
data plane keeps working); a
restarted master stays closed ("recovering") until the metadata journal has
been replayed, then serves again with the directory intact; clients
re-attach keeping their uid and epoch; and locks owned by clients that died
with the old master are recovered by the post-failover orphan sweep.
"""

import pytest

from repro.core import (MasterUnavailableError, PartitionSuspected,
                        RetryableError)
from repro.core.master import MasterError
from repro.faults import ClientCrash, FaultPlan, MasterCrash, MasterRecover

from tests.core.conftest import build_pool, fast_config

LEASE = 100_000


def failover_config(**overrides):
    defaults = dict(metadata_journal=True)
    defaults.update(overrides)
    return fast_config(**defaults)


def test_dead_master_raises_typed_retryable_error():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    pool.master.crash()

    def alloc(sim):
        try:
            yield from client.gmalloc(64)
        except RetryableError as exc:
            return exc

    (exc,) = pool.run(alloc(sim))
    # A master that stays down cannot be told from a cut path: the failed
    # attempts and re-attach handshakes make a streak of transport
    # failures, so the verdict once the budget is spent is the streak's.
    assert isinstance(exc, PartitionSuspected)
    assert client.m_partition_suspected.count >= 1
    assert client.m_retries.count == client.retry_policy.max_attempts - 1


def test_data_plane_survives_a_dead_master():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def setup(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.gwrite(gaddr, b"M" * 128)
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    pool.master.crash()

    def rw(sim):
        # Metadata is cached client-side; reads/writes are one-sided verbs
        # against the memory server and never touch the master.
        yield from client.gwrite(gaddr, b"N" * 128)
        yield from client.gsync()
        data = yield from client.gread(gaddr)
        return data

    (data,) = pool.run(rw(sim))
    assert data == b"N" * 128


def test_recovering_master_rejects_ops_typed():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(metadata_journal=True))
    client = pool.clients[0]
    pool.master.crash()
    pool.master.recover()  # recovering until recovery_process() completes

    def alloc(sim):
        try:
            yield from client.gmalloc(64)
        except MasterUnavailableError as exc:
            return str(exc)

    (msg,) = pool.run(alloc(sim))
    assert "recovering" in msg


def test_journal_rebuild_end_to_end_via_fault_plan():
    sim, pool = build_pool(num_servers=2, num_clients=2,
                           config=failover_config())
    c0, c1 = pool.clients
    payloads = {}

    def setup(sim):
        addrs = []
        for i in range(6):
            g = yield from c0.gmalloc(256)
            data = bytes([i + 1]) * 256
            yield from c0.gwrite(g, data)
            payloads[g] = data
            addrs.append(g)
        yield from c0.gsync()
        return addrs

    (addrs,) = pool.run(setup(sim))
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        MasterCrash(at_ns=t0 + 10_000),
        MasterRecover(at_ns=t0 + 60_000),
    ))

    def through_the_outage(sim):
        # Allocations issued during the outage retry until the rebuilt
        # master serves again (auto re-attach + backoff).
        yield sim.timeout(20_000)  # master is down now
        g = yield from c1.gmalloc(512)
        yield from c1.gwrite(g, b"Z" * 512)
        yield from c1.gsync()
        return g

    (g_new,) = pool.run(through_the_outage(sim))
    assert pool.master.failovers.count == 1
    assert pool.master.journal_replayed.total == len(addrs)
    # Old objects survived the failover with their metadata intact.
    master_view = {r.gaddr for r in pool.master.directory.objects()}
    assert set(addrs) <= master_view and g_new in master_view

    def verify(sim):
        out = []
        for g, expected in payloads.items():
            data = yield from c1.gread(g)
            out.append(data == expected)
        return out

    (checks,) = pool.run(verify(sim))
    assert all(checks)


def test_a_journal_alone_claims_a_term_and_deposes_the_master_it_replaced():
    """The journal carries the term, with no other switch armed: a promoted
    standby claims a term above the incumbent's, the servers then refuse
    the deposed incumbent's journal append (so it cannot ack an allocation
    beside its successor), and the client follows the successor's term."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=failover_config(), standby_master=True)
    old, client = pool.master, pool.clients[0]
    assert old.journal.term == 1

    def drive(sim):
        yield from client.gmalloc(64)
        pool.promote_standby()
        while pool.master._recovering:
            yield 10_000
        try:
            yield from old._handle_gmalloc({"client": client.name, "size": 64})
        except MasterError as exc:
            refused = str(exc)
        else:
            refused = None
        yield from client.gmalloc(64)  # bounces off old, served by the new
        return refused

    (refused,) = pool.run(drive(sim))
    assert refused is not None and "deposed" in refused
    assert old.journal.deposed and pool.master.journal.term == 2
    assert sim.metrics.counter("master.term_claims").count == 1
    assert sim.metrics.counter("master.depositions").count == 1
    assert client._shards[0].term_floor == 2


def test_client_reattach_keeps_uid_and_epoch():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=failover_config(client_lease_ns=LEASE))
    client = pool.clients[0]
    uid0, epoch0 = client.uid, client.fence_epoch
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        MasterCrash(at_ns=t0 + 5_000),
        MasterRecover(at_ns=t0 + 45_000),
    ))

    def work(sim):
        yield sim.timeout(10_000)
        g = yield from client.gmalloc(64)  # retries across the outage
        # If no retry re-attached, the next renewal meets the restarted
        # master, which does not know us: that re-attaches.
        yield sim.timeout(LEASE)
        return g

    pool.run(work(sim))
    assert client.uid == uid0
    assert client.fence_epoch == epoch0
    assert not client.fenced
    assert pool.master._client_uids["client0"] == uid0
    # The re-attach was counted exactly once per healed outage.
    assert client.m_master_failovers.count >= 1


def test_orphan_lock_sweep_recovers_locks_lost_with_the_old_master():
    """client0 dies holding a lock, and the master dies with it (losing the
    lease table).  The restarted master gives everyone one lease interval
    to re-register; client0 never does, so its lock is swept."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=failover_config(client_lease_ns=LEASE))
    c0, c1 = pool.clients

    def setup(sim):
        gaddr = yield from c0.gmalloc(128)
        yield from c0.glock(gaddr)
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=t0 + 1_000, client="client0"),
        MasterCrash(at_ns=t0 + 2_000),
        MasterRecover(at_ns=t0 + 40_000),
    ))

    def contender(sim):
        # Outlive the outage + the orphan grace period, then take the lock.
        yield sim.timeout(40_000 + 2 * LEASE)
        t_acq = sim.now
        yield from c1.glock(gaddr)
        yield from c1.gunlock(gaddr)
        return sim.now - t_acq

    (took,) = pool.run(contender(sim))
    assert took < LEASE  # never waited on the dead holder
    assert pool.master.lock_recoveries.total >= 1
    # client1 re-registered with the restarted master; client0 did not.
    assert "client1" in pool.master._client_uids
    assert "client0" not in pool.master._client_uids


def test_orphan_sweep_retires_rings_of_clients_that_never_reattached():
    """Regression: the post-failover sweep recovered orphan locks but left
    the dead client's proxy ring armed — a zombie could keep landing staged
    writes on objects whose locks were just handed to a new holder.  The
    sweep must cut the ring along with the lock; re-attached clients keep
    theirs."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=failover_config(client_lease_ns=LEASE))
    c0, c1 = pool.clients
    server = pool.servers[0]

    def setup(sim):
        gaddr = yield from c0.gmalloc(128)
        yield from c0.glock(gaddr)
        return gaddr

    pool.run(setup(sim))
    assert server.drain.attached("client0") and server.drain.attached("client1")
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=t0 + 1_000, client="client0"),
        MasterCrash(at_ns=t0 + 2_000),
        MasterRecover(at_ns=t0 + 40_000),
    ))

    def outlive_the_sweep(sim):
        # client1's heartbeat re-attaches it within one interval of the
        # restart (well inside the grace window); client0 stays dead.
        yield sim.timeout(40_000 + 3 * LEASE)

    pool.run(outlive_the_sweep(sim))
    assert "client1" in pool.master._client_uids
    # client0 never re-attached: lock recovered AND ring retired ...
    assert server.drain.attached("client0") is None
    # ... while the re-attached survivor's ring is untouched.
    assert server.drain.attached("client1")
