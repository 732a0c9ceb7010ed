"""Partition tolerance: master terms, deposition, typed partition errors.

The contract under test, per ``docs/PROTOCOLS.md`` §9: the journal
adjudicates master terms, so a master on the losing side of a partition
can never ack another allocation after a successor claims a higher term —
its first journal touch (an alloc, a lease fence's authority check, or
the periodic no-op validation) deposes it, and from then on it refuses
every RPC *including attach*.  Client-side, partitions surface as typed
retryable errors within the deadline, never as hangs; master-side, the
phi-accrual detector turns "unreachable" into *suspected*, not fenced,
until the suspicion crosses the threshold.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.core import (
    DeadlineExceededError,
    FencedError,
    MasterUnavailableError,
    PartitionSuspected,
    RetryPolicy,
    StaleTermError,
)
from repro.core.master import MasterError
from repro.faults import FaultPlan, MasterCrash, MasterRecover, Partition

from tests.core.conftest import build_pool, fast_config

LEASE = 100_000


def partition_config(**overrides):
    defaults = dict(client_lease_ns=LEASE, metadata_journal=True,
                    failure_detector=True)
    defaults.update(overrides)
    return fast_config(**defaults)


@pytest.fixture(autouse=True)
def unjittered_retries(monkeypatch):
    """Every client here backs off on the plain doubling schedule."""
    monkeypatch.setattr(RetryPolicy, "backoff_ns", lambda self, attempt, rng: min(
        self.base_backoff_ns << min(attempt - 1, 20), self.max_backoff_ns))


def wait_promoted(sim, pool):
    """Promote the standby and park until its term claim lands."""
    pool.promote_standby()
    for _ in range(64):
        if not pool.master._recovering:
            return
        yield sim.timeout(LEASE // 8)
    raise AssertionError("standby never finished recovery")


# ----------------------------------------------------------------------
# Split brain: the deposed master cannot ack
# ----------------------------------------------------------------------
def test_split_brain_old_master_cannot_ack_after_heal():
    """Partition the master, promote the standby mid-partition, heal: the
    old master's next allocation attempt dies on the journal's stale-term
    rejection — it never acks, even though it is still running."""
    sim, pool = build_pool(num_servers=2, num_clients=2,
                           config=partition_config(), standby_master=True)
    old = pool.master
    client = pool.clients[0]
    others = ("master1", "server0", "server1", "client0", "client1")

    def drive(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.glock(gaddr)
        yield from client.gwrite(gaddr, b"A" * 64)
        yield from client.gunlock(gaddr)
        start = sim.now + 1_000
        inj = pool.inject_faults(FaultPlan.of(Partition(
            start_ns=start, end_ns=start + 4 * LEASE,
            group_a=("master",), group_b=others)))
        yield sim.timeout(1_000 + LEASE)       # mid-partition
        yield from wait_promoted(sim, pool)
        yield sim.timeout(4 * LEASE)           # past the heal
        inj.uninstall()
        try:
            yield from old._handle_gmalloc({"client": "client0", "size": 64})
        except MasterError as exc:
            caught = exc
        else:
            caught = None
        data = yield from client.gread(gaddr)  # survivors keep serving
        return caught, data

    ((caught, data),) = pool.run(drive(sim))
    assert caught is not None and "deposed" in str(caught)
    assert old.journal.deposed
    assert pool.master is not old
    assert pool.master.journal.term > old.journal.term
    assert data == b"A" * 64
    assert sim.metrics.counter("master.depositions").count >= 1


def test_validate_term_deposes_a_superseded_master():
    """The periodic authority check (no-op TERM append) is how a healed
    stale master learns of its successor even when nothing else touches
    the journal."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=partition_config(), standby_master=True)
    old = pool.master

    def drive(sim):
        yield from pool.clients[0].gmalloc(64)
        yield from wait_promoted(sim, pool)
        try:
            yield from old.journal.validate()
        except MasterError as exc:
            return str(exc)
        return None

    (msg,) = pool.run(drive(sim))
    assert msg is not None and "deposed" in msg
    assert old.journal.deposed
    assert pool.master.journal.term == old.journal.term + 1


@pytest.mark.parametrize("crashed", [[], [1]], ids=["all-up", "one-down"])
def test_term_claim_reports_only_the_servers_it_missed(crashed):
    """A claim that reached every server reports nothing skipped; one that
    kept missing a crashed server names exactly that server."""
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=partition_config())
    rec = obs.install(sim)
    for sid in crashed:
        pool.servers[sid].crash()
    pool.run(pool.master.journal.claim())
    skipped = [e.fields["unreachable"] for e in rec.events
               if e.message == "term claim skipped servers"]
    assert skipped == ([crashed] if crashed else [])
    assert [e.message for e in rec.events].count("term claimed") == 1


def test_term_claim_waits_only_between_its_rounds():
    """A claim that keeps missing a crashed server retries it after each of
    its first two rounds, not after the last: three rounds, two waits of
    a quarter lease."""
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=partition_config())
    assert pool.master.config.client_lease_ns == 100_000
    pool.servers[1].crash()
    start = sim.now
    pool.run(pool.master.journal.claim())
    assert sim.now - start == 114_910


def test_deposed_master_refuses_every_rpc_including_attach():
    """An attach served by a deposed master would park the client on a
    dead control plane forever; all three RPC classes must bounce."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=partition_config())
    master = pool.master
    master.journal.deposed = True

    def drive(sim):
        msgs = []
        for gen in (master._handle_attach({"client": "c9"}),
                    master._handle_gmalloc({"client": "c9", "size": 64}),
                    master._handle_renew({"client": "client0", "epoch": 0})):
            try:
                yield from gen
            except MasterError as exc:
                msgs.append(str(exc))
        return msgs

    (msgs,) = pool.run(drive(sim))
    assert len(msgs) == 3
    assert all("deposed" in m for m in msgs)


def test_promotion_keeps_the_pool_serving():
    """Uncontested promotion: clients chase the stale-term rejection to
    the new master and both old data and new allocations keep working."""
    sim, pool = build_pool(num_servers=2, num_clients=2,
                           config=partition_config(), standby_master=True)
    old = pool.master
    client = pool.clients[0]

    def drive(sim):
        gaddr = yield from client.gmalloc(128)
        yield from client.glock(gaddr)
        yield from client.gwrite(gaddr, b"B" * 128)
        yield from client.gunlock(gaddr)
        yield from wait_promoted(sim, pool)
        g2 = yield from client.gmalloc(64)     # forces the failover
        data = yield from client.gread(gaddr)
        return g2, data

    ((g2, data),) = pool.run(drive(sim))
    assert data == b"B" * 128 and g2 is not None
    parts = pool.describe()["partitions"]
    assert parts["master_term"] == 2
    assert parts["master_deposed"] is False          # the *current* master
    assert parts["standby"] == "master"              # the demoted incumbent
    assert parts["depositions"] >= 1
    assert parts["stale_term_rejections"] >= 1
    assert parts["term_claims"] == 1  # one recovery, one claim


def test_a_master_crash_after_promotion_hits_the_promoted_master():
    """``masters[0] is master`` holds across a promotion.  PR 9 introduced
    the shard list and left the deposed incumbent in it, so the chaos soak's
    heal-mid-failover round crashed and *resurrected* the old master, which
    claimed term 3 and deposed the legitimate one (``master_term`` read 2
    where ``ci.yml`` asserts >= 3)."""
    sim, pool = build_pool(num_servers=2, num_clients=2,
                           config=partition_config(), standby_master=True)
    old = pool.master

    def drive(sim):
        yield from wait_promoted(sim, pool)
        promoted = pool.master
        assert pool.masters == [promoted] and promoted is not old
        inj = pool.inject_faults(FaultPlan.of(
            MasterCrash(at_ns=sim.now + 1_000),
            MasterRecover(at_ns=sim.now + 2_000)))
        for _ in range(64):
            yield sim.timeout(LEASE // 8)
            if promoted.failovers.count == 2 and not promoted._recovering:
                break
        inj.uninstall()
        return promoted

    (promoted,) = pool.run(drive(sim))
    assert promoted.crashes == 1 and old.crashes == 0
    assert promoted.journal.term == 3 and not promoted.journal.deposed
    assert pool.describe()["partitions"]["master_term"] == 3


# ----------------------------------------------------------------------
# An asymmetric partition: the data plane stays up
# ----------------------------------------------------------------------
def test_asymmetric_split_fails_typed_and_bounded():
    """Clients lose the master but keep the data plane: reads and staged
    writes keep working, control ops fail *typed* well within the window
    (never a hang), and the master only *suspects* the silent clients —
    after the heal everything resumes under the same epoch."""
    sim, pool = build_pool(num_servers=2, num_clients=2,
                           config=partition_config(op_deadline_ns=60_000))
    client = pool.clients[0]

    def drive(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"C" * 64)
        yield from client.gsync()
        start = sim.now + 1_000
        inj = pool.inject_faults(FaultPlan.control_plane_split(
            at_ns=start, clients=("client0", "client1"),
            duration_ns=3 * LEASE))
        yield sim.timeout(2_000)               # inside the window
        data = yield from client.gread(gaddr)  # data plane unaffected
        yield from client.gwrite(gaddr, b"D" * 64)
        t0 = sim.now
        try:
            yield from client.gmalloc(64)
            caught = None
        except (MasterUnavailableError, PartitionSuspected,
                StaleTermError, DeadlineExceededError) as exc:
            caught = exc
        elapsed = sim.now - t0
        yield sim.timeout(start + 3 * LEASE + LEASE - sim.now)  # heal + slack
        inj.uninstall()
        g2 = yield from client.gmalloc(64)     # control plane is back
        yield from client.glock(gaddr)         # and we were never fenced
        yield from client.gunlock(gaddr)
        return data, caught, elapsed, g2

    ((data, caught, elapsed, g2),) = pool.run(drive(sim))
    assert data == b"C" * 64
    assert caught is not None, "control op silently succeeded mid-split"
    assert elapsed < 3 * LEASE, "control op hung past its deadline"
    assert g2 is not None
    assert not client._fenced and client.fence_epoch == 0
    # The silent clients crossed their lease deadline but stayed merely
    # suspected: the phi threshold needs far more silence than 3 leases.
    assert sim.metrics.counter("master.suspected_clients").count >= 1
    assert sim.metrics.counter("master.lease_expiries").count == 0


def test_master_recovery_mid_partition_spares_absent_clients():
    """MasterRecover while a client is unreachable: the orphan sweep must
    defer (suspected, not ring-retired) so the healed client resumes on
    its old rings instead of greeting StaleRingError."""
    sim, pool = build_pool(num_servers=1, num_clients=2,
                           config=partition_config())
    c0 = pool.clients[0]

    def drive(sim):
        gaddr = yield from c0.gmalloc(64)
        yield from c0.gwrite(gaddr, b"E" * 64)
        yield from c0.gsync()
        start = sim.now + 1_000
        # Heal at +2 leases: inside the detector's deferred-grace window
        # (sweep decides at recovery + 2 leases), so the re-attaching
        # client must keep its rings and locks.
        inj = pool.inject_faults(FaultPlan.of(
            Partition(start_ns=start, end_ns=start + 2 * LEASE,
                      group_a=("client0",), group_b=("master",)),
            MasterCrash(at_ns=start + LEASE // 2),
            MasterRecover(at_ns=start + LEASE)))
        yield sim.timeout(1_000 + 5 * LEASE)   # heal + sweep + slack
        inj.uninstall()
        yield from c0.gwrite(gaddr, b"F" * 64)  # old ring must still work
        yield from c0.gsync()
        data = yield from c0.gread(gaddr)
        return data

    (data,) = pool.run(drive(sim))
    assert data == b"F" * 64
    assert not c0._fenced


# ----------------------------------------------------------------------
# Lease lapse: probe, don't self-fence
# ----------------------------------------------------------------------
def test_backoff_outlasting_the_lease_probes_instead_of_self_fencing():
    """Regression: an op whose retry backoff outlasts the lease deadline
    must resolve the lapse with a renew probe (recoverable) rather than
    terminally self-fencing — the master never said "fenced"."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=partition_config())
    client = pool.clients[0]
    client.retry_policy = replace(client.retry_policy, base_backoff_ns=150_000,
                                  max_backoff_ns=300_000)

    def drive(sim):
        gaddr = yield from client.gmalloc(64)
        pool.master.crash()

        def revive(sim):
            yield sim.timeout(3 * LEASE)
            pool.master.recover()
            yield from pool.master.recovery_process()

        sim.spawn(revive(sim))
        yield sim.timeout(LEASE + LEASE // 2)  # lease lapses locally
        yield from client.glock(gaddr)         # lapse -> probe -> retry -> ok
        yield from client.gwrite(gaddr, b"G" * 64)
        yield from client.gunlock(gaddr)
        data = yield from client.gread(gaddr)
        return data

    (data,) = pool.run(drive(sim))
    assert data == b"G" * 64
    assert not client._fenced
    assert client.fence_epoch == 0
    assert sim.metrics.counter("pool.lease_lapses").count >= 1


def test_lease_lapse_probe_verdicts():
    """The probe's three verdicts: a reachable master renews (same epoch),
    and only an explicit "fenced" verdict raises the terminal error."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=partition_config())
    client = pool.clients[0]
    master = pool.master

    def drive(sim):
        yield from client.gmalloc(64)
        shard = client._shards[0]
        shard.lease_deadline = sim.now    # force a local lapse
        yield from shard.lapse_probe("glock")
        renewed = shard.lease_deadline > sim.now
        yield from master.evict_client("client0")
        try:
            yield from shard.lapse_probe("glock")
        except FencedError as exc:
            return renewed, exc
        return renewed, None

    ((renewed, exc),) = pool.run(drive(sim))
    assert renewed, "probe against a live master must renew in place"
    assert isinstance(exc, FencedError), "a fenced verdict must be terminal"
    assert client._fenced
